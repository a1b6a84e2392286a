import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from umrlab.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny corpus plus stage-0/1 checkpoints shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main([
        "gen-data", "--out", str(corpus), "--seed", "3", "--concepts", "8",
        "--tasks", "t2t,t2i", "--distractors", "1", "--test-fraction", "0.25",
        "--n-t", "4", "--n-i", "6", "--text-vocab", "50", "--image-vocab", "50",
    ]) == 0
    common = [
        "--corpus", str(corpus), "--batch", "4", "--epochs", "1",
        "--steps-per-epoch", "2", "--d-model", "8", "--n-heads", "2",
        "--layers", "2", "--max-seq", "24", "--k", "1", "--seed", "0",
    ]
    teacher = root / "teacher.ckpt"
    assert main(["train", "--stage", "0", "--out", str(teacher), *common]) == 0
    student = root / "student.ckpt"
    assert main([
        "train", "--stage", "1", "--out", str(student), "--teacher", str(teacher),
        "--curve", str(root / "curve.csv"), *common,
    ]) == 0
    return root, corpus, teacher, student


class TestGenData:
    def test_reproducible_bytes(self, tmp_path):
        args = [
            "gen-data", "--seed", "5", "--concepts", "6", "--tasks", "t2t",
            "--distractors", "1", "--test-fraction", "0.25",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("queries.jsonl", "candidates.jsonl", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrainArtifacts:
    def test_checkpoints_and_curve_exist(self, workdir):
        root, _, teacher, student = workdir
        assert teacher.exists() and student.exists()
        curve = (root / "curve.csv").read_text().splitlines()
        assert curve[0] == "stage,epoch,contrastive,distill,total,tau_hard,alpha1,alpha2"

    def test_stage1_without_teacher_fails(self, workdir, capsys):
        root, corpus, _, _ = workdir
        code = main([
            "train", "--stage", "1", "--corpus", str(corpus),
            "--out", str(root / "x.ckpt"), "--batch", "4",
        ])
        assert code == 1
        assert "teacher" in capsys.readouterr().err

    def test_non_finite_lr_is_diagnosed(self, workdir, capsys):
        root, corpus, _, _ = workdir
        out = root / "nan.ckpt"
        code = main([
            "train", "--stage", "0", "--corpus", str(corpus), "--out", str(out),
            "--batch", "4", "--epochs", "1", "--lr", "nan",
        ])
        assert code == 1
        assert "lr" in capsys.readouterr().err
        assert not out.exists()

    def test_stage2_runs_from_init(self, workdir):
        root, corpus, _, student = workdir
        out = root / "stage2.ckpt"
        assert main([
            "train", "--stage", "2", "--corpus", str(corpus), "--init", str(student),
            "--out", str(out), "--batch", "4", "--epochs", "1",
            "--steps-per-epoch", "2", "--seed", "1",
        ]) == 0
        assert out.exists()


class TestPruneEmbedIndexSearch:
    def test_prune(self, workdir):
        root, _, teacher, _ = workdir
        out = root / "pruned.ckpt"
        assert main(["prune", "--in", str(teacher), "--k", "1", "--out", str(out)]) == 0
        from umrlab.checkpoint import load_checkpoint

        enc, _ = load_checkpoint(out)
        assert enc.config.n_layers == 1

    def test_embed_csv(self, workdir):
        root, corpus, _, student = workdir
        out = root / "emb.csv"
        assert main([
            "embed", "--checkpoint", str(student), "--corpus", str(corpus),
            "--side", "candidate", "--out", str(out), "--limit", "5",
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("id,modality,dataset,v0")

    @pytest.mark.parametrize("side", ["query", "candidate"])
    def test_embed_csv_bytes_match_per_item_embeds(self, workdir, side):
        from umrlab.checkpoint import load_checkpoint
        from umrlab.datagen import Corpus
        from umrlab.retrieval import embed_candidate, embed_query

        root, corpus, _, student = workdir
        out = root / f"all-{side}.csv"
        assert main([
            "embed", "--checkpoint", str(student), "--corpus", str(corpus),
            "--side", side, "--out", str(out),
        ]) == 0
        enc, _ = load_checkpoint(student)
        data = Corpus.load(corpus)
        items = data.all_queries() if side == "query" else data.all_candidates()
        vector_of = embed_query if side == "query" else embed_candidate
        ref = root / f"ref-{side}.csv"
        with open(ref, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "modality", "dataset"] + [f"v{i}" for i in range(enc.config.d_model)])
            for item in items:
                vec = vector_of(enc, item)
                writer.writerow([item.id, item.modality, item.dataset] + [f"{x:.8g}" for x in vec])
        assert out.read_bytes() == ref.read_bytes()

    def test_index_and_search_agree(self, workdir, capsys):
        root, corpus, _, student = workdir
        idx = root / "pool.idx"
        assert main([
            "index", "--checkpoint", str(student), "--corpus", str(corpus), "--out", str(idx),
        ]) == 0
        capsys.readouterr()
        assert main([
            "search", "--checkpoint", str(student), "--corpus", str(corpus),
            "--query-id", "0", "--k", "3", "--scope", "local",
        ]) == 0
        fresh = capsys.readouterr().out
        assert main([
            "search", "--checkpoint", str(student), "--corpus", str(corpus),
            "--index", str(idx), "--query-id", "0", "--k", "3", "--scope", "local",
        ]) == 0
        loaded = capsys.readouterr().out
        assert fresh == loaded
        assert "candidate" in fresh


class TestEval:
    def test_both_scopes_one_csv(self, workdir):
        root, corpus, _, student = workdir
        out = root / "report.csv"
        assert main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--scope", "local", "--scope", "global", "--k", "5", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "task,dataset,scope,k,recall,checkpoint,config_hash"
        scopes = {line.split(",")[2] for line in lines[1:]}
        assert scopes == {"local", "global"}

    def test_separation_and_pca(self, workdir, capsys):
        root, corpus, _, student = workdir
        pca = root / "pca.csv"
        assert main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--scope", "local", "--separation", "--pca-out", str(pca),
        ]) == 0
        out = capsys.readouterr().out
        assert "modality separation" in out
        assert pca.read_text().splitlines()[0] == "id,modality,x,y"

    def test_k_override(self, workdir):
        root, corpus, _, student = workdir
        out = root / "override.csv"
        assert main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--scope", "local", "--k", "5", "--k-override", "ds-t2i=10",
            "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        ks = {row[1]: row[3] for row in rows}
        assert ks["ds-t2i"] == "10" and ks["ds-t2t"] == "5"


    def test_k_override_non_integer_is_diagnosed(self, workdir, capsys):
        _, corpus, _, student = workdir
        code = main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--scope", "local", "--k-override", "ds-t2i=x",
        ])
        assert code == 1
        assert "ds-t2i=x" in capsys.readouterr().err


class TestFlops:
    def test_prints_ratio(self, capsys):
        assert main(["flops", "--layers", "28", "--k", "12", "--seq", "256"]) == 0
        out = capsys.readouterr().out
        assert "0.4286" in out
        assert "0.473" in out

    def test_k_zero(self, capsys):
        assert main(["flops", "--layers", "4", "--k", "0", "--seq", "8", "--d-model", "16"]) == 0
        out = capsys.readouterr().out
        assert f"flops(k=0, seq=8, d=16): {2 * 8 * 16}" in out


class TestGradCheck:
    def test_exits_zero(self, capsys):
        assert main(["grad-check", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "worst" in out
        assert "FAIL" not in out


class TestSweep:
    def test_distinct_hashes(self, workdir):
        root, corpus, _, student = workdir
        out_dir = root / "sweep"
        assert main([
            "sweep", "--corpus", str(corpus), "--init", str(student),
            "--lambdas", "0.2,0.5,0.7", "--out-dir", str(out_dir),
            "--epochs", "1", "--batch", "4", "--steps-per-epoch", "1",
        ]) == 0
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 4
        hashes = {line.split(",")[1] for line in summary[1:]}
        assert len(hashes) == 3
        for lam in ("0.2", "0.5", "0.7"):
            assert (out_dir / f"report-lam-{lam}.csv").exists()


class TestConfigFile:
    def test_config_file_applies_and_flags_override(self, workdir, tmp_path):
        root, corpus, _, _ = workdir
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "# training settings\n"
            "epochs = 1\n"
            "batch = 4\n"
            "steps_per_epoch = 1\n"
            "d_model = 8\n"
            "n_heads = 2\n"
            "layers = 2\n"
            "max_seq = 24\n"
            "k = 1\n"
            "lr = 0.001  # inline comment\n"
        )
        out = tmp_path / "cfg.ckpt"
        assert main([
            "train", "--stage", "0", "--corpus", str(corpus), "--out", str(out),
            "--config", str(cfg), "--seed", "2",
        ]) == 0
        assert out.exists()

    def test_unknown_key_rejected(self, workdir, tmp_path, capsys):
        root, corpus, _, _ = workdir
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        code = main([
            "train", "--stage", "0", "--corpus", str(corpus),
            "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg),
        ])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_misspelled_bool_rejected(self, workdir, tmp_path, capsys):
        root, corpus, _, _ = workdir
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("distill_normalize = ture\n")
        code = main([
            "train", "--stage", "0", "--corpus", str(corpus),
            "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "distill_normalize" in err and str(cfg) in err
        assert not (tmp_path / "x.ckpt").exists()

    def test_non_numeric_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "data.cfg"
        cfg.write_text("concepts = abc\n")
        code = main(["gen-data", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "concepts" in err and str(cfg) in err


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["flops", "--layers", "4", "--k", "1", "--seq", "8", "--bogus"])
        assert err.value.code == 2

    def test_missing_file_is_diagnosed(self, tmp_path, capsys):
        code = main([
            "eval", "--checkpoint", str(tmp_path / "none.ckpt"),
            "--corpus", str(tmp_path / "none"),
        ])
        assert code == 1 or code == 2

    def test_module_entry_point(self):
        # A fresh interpreter finds the package through an absolute src path,
        # whatever directory pytest was started from.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "umrlab", "flops", "--layers", "8", "--k", "3", "--seq", "16"],
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "layer-stack ratio" in proc.stdout
