import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from umrlab import cli
from umrlab.cli import main


CORPUS_ARGS = [
    "--concepts", "8", "--tasks", "t2t,t2i", "--distractors", "1", "--test-fraction", "0.25",
    "--n-t", "4", "--n-i", "6", "--text-vocab", "50", "--image-vocab", "50",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny corpus plus stage-0/1 checkpoints shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["gen-data", "--out", str(corpus), *CORPUS_ARGS, "--seed", "3"]) == 0
    common = [
        "--corpus", str(corpus), "--batch", "4", "--epochs", "1",
        "--steps-per-epoch", "2", "--seed", "0",
    ]
    shape = ["--d-model", "8", "--n-heads", "2", "--layers", "2", "--max-seq", "24", "--k", "1"]
    teacher = root / "teacher.ckpt"
    assert main(["train", "0", "--out", str(teacher), *common, *shape]) == 0
    # the student keeps the teacher's k = 1
    student = root / "student.ckpt"
    assert main([
        "train", "1", "--out", str(student), "--teacher", str(teacher),
        "--curve", str(root / "curve.csv"), *common,
    ]) == 0
    return root, corpus, teacher, student


# the config keys of each parser that reads a --config file: the dests of its
# setting flags; train has one parser per stage
CONFIG_KEYS = {
    "gen-data": {
        "seed", "concepts", "tasks", "noise", "distractors", "test_fraction",
        "text_vocab", "image_vocab", "n_t", "n_i",
    },
    "train 0": {
        "seed", "epochs", "lr", "shards", "batch", "tau0", "steps_per_epoch",
        "k", "d_model", "n_heads", "layers", "max_seq",
    },
    "train 1": {
        "seed", "epochs", "lr", "shards", "batch", "tau0", "steps_per_epoch",
        "k", "alpha_mode", "distill_variant", "distill_tau",
    },
    "train 2": {
        "seed", "epochs", "lr", "shards", "batch", "tau0", "steps_per_epoch", "lam", "temp_mode",
    },
    "sweep": {"seed", "epochs", "lr", "shards", "batch", "tau0", "temp_mode", "steps_per_epoch"},
}
REQUIRED = {
    "gen-data": ["--out", "corpus"],
    "train 0": ["--corpus", "corpus", "--out", "x.ckpt"],
    "train 1": ["--corpus", "corpus", "--out", "x.ckpt", "--teacher", "t.ckpt"],
    "train 2": ["--corpus", "corpus", "--out", "x.ckpt", "--init", "i.ckpt"],
    "sweep": ["--corpus", "corpus", "--init", "x.ckpt", "--out-dir", "sweep"],
}


def parsers_of(command: str) -> list[str]:
    return [name for name in CONFIG_KEYS if name.split()[0] == command]


def argv_of(parser: str) -> list[str]:
    return [*parser.split(), *REQUIRED[parser]]


# every (stage, setting) pair where the setting belongs to another train stage only
TRAIN_KEYS = set().union(*(CONFIG_KEYS[p] for p in parsers_of("train")))
OTHER_STAGE_KEYS = [
    (stage, key) for stage in range(3) for key in sorted(TRAIN_KEYS - CONFIG_KEYS[f"train {stage}"])
]
# a value other than the default for every key
SAMPLE = {
    "seed": "7", "concepts": "9", "tasks": "i2i, t2t", "noise": "0.3", "distractors": "4",
    "test_fraction": "0.5", "text_vocab": "60", "image_vocab": "70", "n_t": "3", "n_i": "5",
    "epochs": "2", "lr": "0.5", "shards": "2", "batch": "6", "k": "2", "tau0": "0.07",
    "lam": "0.6", "temp_mode": "reverse", "alpha_mode": "dynamic", "distill_variant": "kl",
    "distill_tau": "0.4", "steps_per_epoch": "3", "d_model": "12",
    "n_heads": "3", "layers": "5", "max_seq": "30",
}


class TestGenData:
    def test_reproducible_bytes(self, tmp_path):
        args = [
            "gen-data", "--seed", "5", "--concepts", "6", "--tasks", "t2t",
            "--distractors", "1", "--test-fraction", "0.25",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["meta.json"]
        assert (tmp_path / "a" / "meta.json").read_bytes() == (tmp_path / "b" / "meta.json").read_bytes()

    @pytest.mark.parametrize(
        "flag,value,named", [("--text-vocab", "0", "vocabularies"), ("--n-t", "-1", "n_t"),
                             ("--distractors", "-1", "distractors")],
    )
    def test_bad_extent_is_diagnosed(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "corpus"
        assert main(["gen-data", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["gen-data", "train 0", "train 1", "train 2", "sweep"])
    def test_negative_seed_is_diagnosed_before_any_output(self, workdir, tmp_path, capsys, command):
        _, corpus, teacher, student = workdir
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data", "--out", str(out)],
            "train 0": ["train", "0", "--corpus", str(corpus), "--out", str(out)],
            "train 1": ["train", "1", "--corpus", str(corpus), "--out", str(out), "--teacher", str(teacher)],
            "train 2": ["train", "2", "--corpus", str(corpus), "--out", str(out), "--init", str(student)],
            "sweep": ["sweep", "--corpus", str(corpus), "--init", str(student), "--out-dir", str(out)],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0, got -1\n"
        assert "Traceback" not in err
        assert not out.exists()


class TestCorruptCorpusMeta:
    """A meta.json value the generator could not have written ends in a
    FormatError at offset 0, not a traceback from whatever reads it."""

    def corrupt(self, workdir, tmp_path, change) -> Path:
        _, corpus, _, _ = workdir
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        meta = json.loads((copy / "meta.json").read_text())
        change(meta)
        (copy / "meta.json").write_text(json.dumps(meta))
        return copy

    @pytest.mark.parametrize(
        "field,value", [("image_vocab_size", 400.5), ("n_concepts", True), ("n_t", "4")]
    )
    def test_extent_that_is_not_an_integer_is_diagnosed(self, workdir, tmp_path, capsys, field, value):
        corpus = self.corrupt(workdir, tmp_path, lambda meta: meta["spec"].update({field: value}))
        out = tmp_path / "x.ckpt"
        assert main(["train", "0", "--corpus", str(corpus), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: meta.json: bad corpus spec ({field} must be an integer, got {value!r}) "
            "(at byte offset 0)\n"
        )
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, "abc", True, 1.5, None])
    def test_seed_that_is_not_a_non_negative_integer_is_diagnosed(self, workdir, tmp_path, capsys, seed):
        _, _, _, student = workdir
        corpus = self.corrupt(workdir, tmp_path, lambda meta: meta.update(seed=seed))
        out = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(student), "--corpus", str(corpus), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            f"error: meta.json: seed must be a non-negative integer, got {seed!r} (at byte offset 0)\n"
        )
        assert "Traceback" not in err
        assert not out.exists()

    def test_old_three_file_layout_is_diagnosed(self, workdir, tmp_path, capsys):
        _, _, _, student = workdir
        corpus = self.corrupt(workdir, tmp_path, lambda meta: meta.update(train_ids=[0, 1]))
        (corpus / "queries.jsonl").write_text("")
        (corpus / "candidates.jsonl").write_text("")
        out = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(student), "--corpus", str(corpus), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: meta.json: unexpected keys ['train_ids']; ")
        assert "old three-file layout" in err and err.endswith("(at byte offset 0)\n")
        assert "Traceback" not in err
        assert not out.exists()


class TestTrainArtifacts:
    def test_checkpoints_and_curve_exist(self, workdir):
        root, _, teacher, student = workdir
        assert teacher.exists() and student.exists()
        curve = (root / "curve.csv").read_text().splitlines()
        assert curve[0] == "stage,epoch,contrastive,distill,total,tau_hard,alpha1,alpha2"

    def test_stage1_without_teacher_fails(self, workdir, capsys):
        root, corpus, _, _ = workdir
        with pytest.raises(SystemExit) as err:
            main(["train", "1", "--corpus", str(corpus), "--out", str(root / "x.ckpt"), "--batch", "4"])
        assert err.value.code == 2
        assert "the following arguments are required: --teacher" in capsys.readouterr().err
        assert not (root / "x.ckpt").exists()

    @pytest.mark.parametrize("flags", [["--steps-per-epoch", "-3"], ["--steps-per-epoch", "0"], ["--epochs", "-1"]])
    def test_bad_epoch_setting_is_diagnosed(self, workdir, capsys, flags):
        root, corpus, _, _ = workdir
        out = root / "no-steps.ckpt"
        code = main(["train", "0", "--corpus", str(corpus), "--out", str(out), "--batch", "4", *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flags[0][2:].replace('-', ' ')} must be >= ")
        assert not out.exists()

    def test_non_finite_lr_is_diagnosed(self, workdir, capsys):
        root, corpus, _, _ = workdir
        out = root / "nan.ckpt"
        code = main([
            "train", "0", "--corpus", str(corpus), "--out", str(out),
            "--batch", "4", "--epochs", "1", "--lr", "nan",
        ])
        assert code == 1
        assert "lr" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_distill_tau_is_diagnosed(self, workdir, capsys):
        root, corpus, teacher, _ = workdir
        out, curve = root / "nan-tau.ckpt", root / "nan-tau.csv"
        code = main([
            "train", "1", "--corpus", str(corpus), "--out", str(out), "--teacher", str(teacher),
            "--curve", str(curve), "--batch", "4", "--distill-variant", "kl", "--distill-tau", "nan",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: distill_tau must be finite and positive, got nan\n"
        assert not out.exists() and not curve.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--lambda", "10", "--epochs", "3"], "tau0 0.05 and lambda 10.0 round the hard temperature of epoch 2 of 3"),
            (["--tau0", "0.0004", "--temp-mode", "off", "--epochs", "1"],
             "tau0 0.0004 and lambda 0.2 round the hard temperature of epoch 0 of 1"),
        ],
        ids=["decayed", "tau0"],
    )
    def test_temperature_that_rounds_to_zero_is_refused_before_a_step(
        self, workdir, capsys, monkeypatch, flags, message
    ):
        from umrlab import trainer

        root, corpus, _, student = workdir
        steps = []
        monkeypatch.setattr(trainer, "train_step", lambda *args: steps.append(args))
        out, curve = root / "cold.ckpt", root / "cold.csv"
        code = main([
            "train", "2", "--corpus", str(corpus), "--init", str(student),
            "--out", str(out), "--curve", str(curve), "--batch", "4", *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message} to 0.0\n"
        assert steps == [] and not out.exists() and not curve.exists()

    @pytest.mark.parametrize("flag", ["--out", "--curve"])
    def test_output_in_a_missing_directory_is_refused_before_a_step(
        self, workdir, tmp_path, capsys, monkeypatch, flag
    ):
        from umrlab import trainer

        _, corpus, _, student = workdir
        steps = []
        monkeypatch.setattr(trainer, "train_step", lambda *args: steps.append(args))
        paths = {"--out": tmp_path / "y.ckpt", "--curve": tmp_path / "c.csv"}
        paths[flag] = tmp_path / "missing" / paths[flag].name
        code = main([
            "train", "2", "--corpus", str(corpus), "--init", str(student),
            "--out", str(paths["--out"]), "--curve", str(paths["--curve"]), "--batch", "4",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {paths[flag]}: directory {paths[flag].parent} does not exist\n"
        assert steps == [] and list(tmp_path.iterdir()) == []

    def test_output_that_is_a_directory_is_refused_before_a_step(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        from umrlab import trainer

        _, corpus, _, student = workdir
        steps = []
        monkeypatch.setattr(trainer, "train_step", lambda *args: steps.append(args))
        code = main([
            "train", "2", "--corpus", str(corpus), "--init", str(student),
            "--out", str(tmp_path), "--batch", "4",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: cannot be written\n"
        assert steps == [] and list(tmp_path.iterdir()) == []

    def test_nan_weight_init_is_diagnosed(self, workdir, capsys):
        from umrlab.checkpoint import load_checkpoint, save_checkpoint

        root, corpus, _, student = workdir
        enc, _ = load_checkpoint(student)
        params = dict(enc.params)
        w1 = params["layers.0.ffn.w1"].copy()
        w1[0, 0] = float("nan")
        w1.flags.writeable = False
        params["layers.0.ffn.w1"] = w1
        init = root / "nan-init.ckpt"
        save_checkpoint(init, enc.with_params(params))
        out, curve = root / "from-nan.ckpt", root / "from-nan.csv"
        code = main([
            "train", "2", "--corpus", str(corpus), "--init", str(init),
            "--out", str(out), "--curve", str(curve), "--batch", "4", "--epochs", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: tensor 'layers.0.ffn.w1' holds a non-finite weight (at byte offset ")
        # the offset is where the tensor's data starts, and w1[0, 0] is its first value
        at = int(err.rsplit("offset ", 1)[1].rstrip(")\n"))
        assert np.isnan(np.frombuffer(init.read_bytes()[at : at + 8], dtype="<f8")[0])
        assert not out.exists() and not curve.exists()

    def test_overflow_stops_training_at_the_next_forward(self, workdir, capsys):
        root, corpus, _, _ = workdir
        out, curve = root / "blown-up.ckpt", root / "blown-up.csv"
        code = main([
            "train", "0", "--corpus", str(corpus), "--out", str(out),
            "--curve", str(curve), "--lr", "1e300", "--batch", "4", "--epochs", "2",
            "--steps-per-epoch", "1", "--d-model", "8", "--n-heads", "2", "--layers", "2",
            "--max-seq", "24", "--k", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        # the first update is finite but near 1e300; the next forward overflows
        assert err.startswith("error: stage 0, epoch 1, step 0: encoder forward left the finite range")
        assert not out.exists() and not curve.exists()

    def test_overflow_after_the_last_update_is_diagnosed(self, workdir, capsys):
        root, corpus, _, _ = workdir
        out, curve = root / "blown-last.ckpt", root / "blown-last.csv"
        code = main([
            "train", "0", "--corpus", str(corpus), "--out", str(out),
            "--curve", str(curve), "--lr", "1e300", "--batch", "4", "--epochs", "1",
            "--steps-per-epoch", "1", "--d-model", "8", "--n-heads", "2", "--layers", "2",
            "--max-seq", "24", "--k", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: encoder forward left the finite range")
        assert not out.exists() and not curve.exists()

    @staticmethod
    def assert_other_stage_rejected(workdir, tmp_path, capsys, stage, flag_args, key, value):
        """``train <stage>`` rejects a setting of another stage: given as a flag
        with a usage error, given as a config key as unknown. Neither run
        writes anything."""
        _, corpus, teacher, student = workdir
        out, curve = tmp_path / "stray.ckpt", tmp_path / "stray.csv"
        source = {0: [], 1: ["--teacher", str(teacher)], 2: ["--init", str(student)]}[stage]
        argv = [
            "train", str(stage), "--corpus", str(corpus), "--out", str(out), "--curve", str(curve),
            *source, "--batch", "4", "--epochs", "1", "--steps-per-epoch", "1",
        ]
        with pytest.raises(SystemExit) as err:
            main([*argv, *flag_args])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag_args)}\n" in capsys.readouterr().err
        cfg = tmp_path / "stray.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown config key {key!r}\n"
        assert not out.exists() and not curve.exists()

    @pytest.mark.parametrize(
        "stage,flag", [(0, "--teacher"), (2, "--teacher"), (0, "--init"), (1, "--init")]
    )
    def test_checkpoint_flag_of_another_stage_is_rejected(self, workdir, tmp_path, capsys, stage, flag):
        _, _, teacher, student = workdir
        path = str(teacher if flag == "--teacher" else student)
        self.assert_other_stage_rejected(workdir, tmp_path, capsys, stage, [flag, path], flag[2:], path)

    @pytest.mark.parametrize("stage,key", OTHER_STAGE_KEYS)
    def test_setting_of_another_stage_is_rejected(self, workdir, tmp_path, capsys, stage, key):
        flag = "--lambda" if key == "lam" else f"--{key.replace('_', '-')}"
        self.assert_other_stage_rejected(workdir, tmp_path, capsys, stage, [flag, SAMPLE[key]], key, SAMPLE[key])

    def test_stage2_runs_from_init(self, workdir):
        root, corpus, _, student = workdir
        out = root / "stage2.ckpt"
        assert main([
            "train", "2", "--corpus", str(corpus), "--init", str(student),
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

    def test_prune_non_finite_weight_is_diagnosed(self, workdir, capsys):
        root, _, teacher, _ = workdir
        blob = bytearray(teacher.read_bytes())
        # the second weight of tok_emb, the first tensor after the 33-byte header
        at = 33 + 8
        blob[at : at + 8] = struct.pack("<d", float("nan"))
        bad, out = root / "bad-weight.ckpt", root / "bad-weight-pruned.ckpt"
        bad.write_bytes(bytes(blob))
        code = main(["prune", "--in", str(bad), "--k", "1", "--out", str(out)])
        assert code == 1
        assert "'tok_emb' holds a non-finite weight (at byte offset 33)" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_limit_is_diagnosed(self, workdir, capsys):
        root, corpus, _, student = workdir
        out = root / "neg.csv"
        code = main([
            "embed", "--checkpoint", str(student), "--corpus", str(corpus),
            "--side", "candidate", "--out", str(out), "--limit", "-1",
        ])
        assert code == 1
        assert "--limit" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_limit_writes_header_only(self, workdir, capsys):
        root, corpus, _, student = workdir
        out = root / "none.csv"
        assert main([
            "embed", "--checkpoint", str(student), "--corpus", str(corpus),
            "--side", "query", "--out", str(out), "--limit", "0",
        ]) == 0
        assert out.read_text().splitlines() == ["id,modality,dataset," + ",".join(f"v{i}" for i in range(8))]
        assert capsys.readouterr().out.startswith("wrote 0 ")

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
        from umrlab.prompts import assemble_prompt
        from umrlab.retrieval import embed_prompts

        root, corpus, _, student = workdir
        out = root / f"all-{side}.csv"
        assert main([
            "embed", "--checkpoint", str(student), "--corpus", str(corpus),
            "--side", side, "--out", str(out),
        ]) == 0
        enc, _ = load_checkpoint(student)
        data = Corpus.load(corpus)
        items = data.all_queries() if side == "query" else data.all_candidates()
        ref = root / f"ref-{side}.csv"
        with open(ref, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "modality", "dataset"] + [f"v{i}" for i in range(enc.config.d_model)])
            for item in items:
                vec = embed_prompts(enc, [assemble_prompt(item, side, enc.config.max_seq)])[0]
                writer.writerow([item.id, item.modality, item.dataset] + [f"{x:.8g}" for x in vec])
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("command", ["embed", "index"])
    def test_output_in_a_missing_directory_is_refused_before_any_embed(
        self, workdir, tmp_path, monkeypatch, capsys, command
    ):
        calls = []
        monkeypatch.setattr(cli, "embed_prompts", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "build_index", lambda *args: calls.append(args))
        _, corpus, _, student = workdir
        out = tmp_path / "missing" / "out"
        side = ["--side", "query"] if command == "embed" else []
        code = main([command, "--checkpoint", str(student), "--corpus", str(corpus), *side, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {out}: directory {out.parent} does not exist\n"
        assert calls == [] and list(tmp_path.iterdir()) == []

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

    def test_index_dataset_code_outside_corpus_is_diagnosed(self, workdir, capsys):
        root, corpus, _, student = workdir
        idx = root / "stray.idx"
        assert main([
            "index", "--checkpoint", str(student), "--corpus", str(corpus), "--out", str(idx),
        ]) == 0
        blob = bytearray(idx.read_bytes())
        record = 8 + 4 * 8  # d_model 8
        at = 16 + 2 * record + 4
        blob[at] = 200
        idx.write_bytes(bytes(blob))
        capsys.readouterr()
        code = main([
            "search", "--checkpoint", str(student), "--corpus", str(corpus),
            "--index", str(idx), "--query-id", "0", "--scope", "global",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: index record 2 has task code 200, outside 0..7 (at byte offset {at})\n"
        assert captured.out == ""

    @pytest.mark.parametrize("saved", [False, True], ids=["built", "loaded"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--query-id", "0", "--k", "0"], "k must be >= 1, got 0"),
            (["--query-id", "9999"], "query id 9999 not in corpus"),
        ],
        ids=["k", "query-id"],
    )
    def test_bad_k_or_query_id_is_refused_before_any_index(
        self, workdir, monkeypatch, capsys, flags, message, saved
    ):
        calls = []
        monkeypatch.setattr(cli, "build_index", lambda *args: calls.append(("build", args)))
        monkeypatch.setattr(cli, "load_index", lambda *args: calls.append(("load", args)))
        root, corpus, _, student = workdir
        index = ["--index", str(root / "never-read.idx")] if saved else []
        code = main(["search", "--checkpoint", str(student), "--corpus", str(corpus), *index, *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

    @pytest.mark.parametrize("query_id,task", [(0, "t2i"), (8, "t2t")])
    def test_index_of_another_corpus_searches_only_the_query_task(
        self, workdir, tmp_path, capsys, query_id, task
    ):
        """An index of a t2t,i2t corpus, searched with a query of the t2t,t2i
        corpus: a local search returns only candidates of the query's task,
        none at all for t2i, which that index lacks."""
        from umrlab.datagen import Corpus

        _, corpus, _, student = workdir
        other = tmp_path / "other"
        other_args = [*CORPUS_ARGS[:2], "--tasks", "t2t,i2t", *CORPUS_ARGS[4:]]
        assert main(["gen-data", "--out", str(other), *other_args, "--seed", "4"]) == 0
        idx = tmp_path / "other.idx"
        assert main(["index", "--checkpoint", str(student), "--corpus", str(other), "--out", str(idx)]) == 0
        capsys.readouterr()
        assert main([
            "search", "--checkpoint", str(student), "--corpus", str(corpus),
            "--index", str(idx), "--query-id", str(query_id), "--k", "3", "--scope", "local",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"query {query_id} task={task} ")
        task_of = {c.id: c.task for c in Corpus.load(other).all_candidates()}
        hits = [int(line.split()[2]) for line in lines[1:]]
        assert [task_of[cid] for cid in hits] == [task] * len(hits)
        assert len(hits) == (0 if task == "t2i" else 3)


@pytest.fixture(scope="module")
def blown(workdir):
    """The student with every weight scaled by 1e300, as one update at a
    learning rate of 1e300 leaves it: finite, but its forward overflows."""
    from umrlab.checkpoint import load_checkpoint, save_checkpoint

    root, _, _, student = workdir
    enc, _ = load_checkpoint(student)
    params = {n: p * 1e300 for n, p in enc.params.items()}
    for p in params.values():
        p.flags.writeable = False
    path = root / "blown.ckpt"
    save_checkpoint(path, enc.with_params(params))
    return path


class TestOverflow:
    @pytest.mark.parametrize("command", ["eval", "index", "embed", "search"])
    def test_overflowing_checkpoint_is_diagnosed(self, workdir, blown, capsys, command):
        root, corpus, _, _ = workdir
        out = root / f"blown-{command}.out"
        extra = {
            "eval": [], "index": ["--out", str(out)],
            "embed": ["--side", "query", "--out", str(out)], "search": ["--query-id", "0"],
        }[command]
        code = main([command, "--checkpoint", str(blown), "--corpus", str(corpus), *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: encoder forward left the finite range (overflow")
        assert "recall" not in captured.out
        assert not out.exists()


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

    def test_pca_of_a_one_dimensional_model_is_diagnosed(self, workdir, tmp_path, capsys):
        _, corpus, _, _ = workdir
        ckpt, pca = tmp_path / "d1.ckpt", tmp_path / "pca.csv"
        assert main([
            "train", "0", "--corpus", str(corpus), "--out", str(ckpt), "--d-model", "1",
            "--n-heads", "1", "--layers", "1", "--k", "1", "--max-seq", "24",
            "--epochs", "1", "--steps-per-epoch", "1", "--batch", "4",
        ]) == 0
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = main([
            "eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--out", str(out), "--pca-out", str(pca),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: PCA needs two components")
        assert "Traceback" not in err
        # the PCA is refused before the report is written
        assert not pca.exists() and not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--pca-out"])
    def test_output_in_a_missing_directory_is_refused_before_any_build(
        self, workdir, tmp_path, monkeypatch, capsys, flag
    ):
        import umrlab.cli
        import umrlab.retrieval

        builds = []
        monkeypatch.setattr(umrlab.retrieval, "build_index", lambda *args, **kw: builds.append(args))
        monkeypatch.setattr(umrlab.cli, "build_index", lambda *args, **kw: builds.append(args))
        _, corpus, _, student = workdir
        paths = {"--out": tmp_path / "report.csv", "--pca-out": tmp_path / "pca.csv"}
        paths[flag] = tmp_path / "missing" / paths[flag].name
        code = main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--out", str(paths["--out"]), "--pca-out", str(paths["--pca-out"]),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {paths[flag]}: directory {paths[flag].parent} does not exist\n"
        assert builds == [] and list(tmp_path.iterdir()) == []

    def test_separation_builds_the_index_once(self, workdir, monkeypatch, capsys):
        import umrlab.cli
        import umrlab.retrieval
        from umrlab.checkpoint import load_checkpoint
        from umrlab.datagen import Corpus

        root, corpus, _, student = workdir
        builds = []
        build = umrlab.retrieval.build_index

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(umrlab.retrieval, "build_index", counting)
        monkeypatch.setattr(umrlab.cli, "build_index", counting)
        out = root / "sep-report.csv"
        assert main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--scope", "local", "--scope", "global", "--k", "1", "--k", "5",
            "--separation", "--out", str(out),
        ]) == 0
        assert len(builds) == 1
        assert "modality separation" in capsys.readouterr().out
        monkeypatch.setattr(umrlab.retrieval, "build_index", build)
        enc, _ = load_checkpoint(student)
        want = umrlab.retrieval.evaluate(
            enc, Corpus.load(corpus), scopes=("local", "global"), ks=(1, 5)
        )
        rows = [line.split(",")[:5] for line in out.read_text().strip().splitlines()[1:]]
        assert rows == [[r.task, r.dataset, r.scope, str(r.k), f"{r.recall:.6f}"] for r in want.rows]

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

    def test_prints_one_mean_per_scope_and_k(self, workdir, capsys):
        from umrlab.checkpoint import load_checkpoint
        from umrlab.datagen import Corpus
        from umrlab.retrieval import evaluate

        _, corpus, _, student = workdir
        assert main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--scope", "local", "--scope", "global", "--k", "1", "--k", "5",
            "--k-override", "ds-t2i=3",
        ]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("mean recall")]
        enc, data = load_checkpoint(student)[0], Corpus.load(corpus)
        want = []
        for scope in ("local", "global"):
            for k in (1, 5):
                # one k at a time: one row per dataset, ds-t2i's at its override
                report = evaluate(enc, data, scopes=(scope,), ks=(k,), k_overrides={"ds-t2i": 3})
                assert sorted(r.k for r in report.rows) == sorted([3, k])
                want.append(f"mean recall@{k} ({scope}): {report.mean_recall(scope):.4f}")
        assert lines == want

    def test_k_override_of_unknown_dataset_is_diagnosed(self, workdir, capsys):
        root, corpus, _, student = workdir
        out = root / "nosuch.csv"
        code = main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--k-override", "nosuch=3", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --k-override names no dataset of the corpus: nosuch\n"
        assert not out.exists()

    def test_k_override_without_a_dataset_is_diagnosed(self, workdir, capsys):
        root, corpus, _, student = workdir
        out = root / "nameless.csv"
        code = main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--k-override", "=3", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --k-override wants dataset=k, got '=3'\n"
        assert not out.exists()

    def test_k_override_naming_a_dataset_twice_is_diagnosed(self, workdir, capsys):
        root, corpus, _, student = workdir
        out = root / "twice.csv"
        code = main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--k-override", "ds-t2i=3", "--k-override", "ds-t2i=7", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --k-override names dataset 'ds-t2i' twice\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scope", "local", "--scope", "local"], "eval repeats a scope: local, local"),
            (["--k", "5", "--k", "1", "--k", "5"], "eval repeats a k: 5, 1, 5"),
        ],
        ids=["scope", "k"],
    )
    def test_repeated_scope_or_k_is_diagnosed_before_any_build(self, workdir, monkeypatch, capsys, flags, message):
        import umrlab.cli
        import umrlab.retrieval

        builds = []
        build = umrlab.retrieval.build_index

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(umrlab.retrieval, "build_index", counting)
        monkeypatch.setattr(umrlab.cli, "build_index", counting)
        root, corpus, _, student = workdir
        out = root / "repeat.csv"
        code = main(["eval", "--checkpoint", str(student), "--corpus", str(corpus), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert builds == [] and not out.exists()

    def test_config_hash_names_checkpoint_content_and_corpus(self, workdir, tmp_path):
        root, corpus, teacher, student = workdir
        other_seed = tmp_path / "corpus-seed-4"
        assert main(["gen-data", "--out", str(other_seed), *CORPUS_ARGS, "--seed", "4"]) == 0
        copy = tmp_path / "copy.ckpt"
        copy.write_bytes(student.read_bytes())

        def report(checkpoint, data):
            out = tmp_path / "report.csv"
            assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(data), "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
            return [row[:5] for row in rows], {row[6] for row in rows}

        rows, (base,) = report(student, corpus)
        copy_rows, (moved,) = report(copy, corpus)
        # the same bytes at another path share the hash; another corpus seed or
        # other weights do not
        assert moved == base and copy_rows == rows
        assert report(student, other_seed)[1] != {base}
        assert report(teacher, corpus)[1] != {base}

    @pytest.mark.parametrize("flags", [["--k", "0", "--k", "5"], ["--k", "5", "--k-override", "ds-t2i=0"]])
    def test_k_below_one_is_diagnosed(self, workdir, capsys, flags):
        root, corpus, _, student = workdir
        out = root / "k-zero.csv"
        code = main(["eval", "--checkpoint", str(student), "--corpus", str(corpus), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: recall needs k >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--k-override", "ds-t2i=0"]])
    def test_k_below_one_builds_no_index(self, workdir, monkeypatch, capsys, flags):
        import umrlab.cli
        import umrlab.retrieval

        builds = []
        build = umrlab.retrieval.build_index

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(umrlab.retrieval, "build_index", counting)
        monkeypatch.setattr(umrlab.cli, "build_index", counting)
        _, corpus, _, student = workdir
        code = main(["eval", "--checkpoint", str(student), "--corpus", str(corpus), *flags])
        assert code == 1
        assert capsys.readouterr().err == "error: recall needs k >= 1, got 0\n"
        assert builds == []

    def test_k_override_non_integer_is_diagnosed(self, workdir, capsys):
        _, corpus, _, student = workdir
        code = main([
            "eval", "--checkpoint", str(student), "--corpus", str(corpus),
            "--scope", "local", "--k-override", "ds-t2i=x",
        ])
        assert code == 1
        assert "ds-t2i=x" in capsys.readouterr().err


class TestNoTestQueries:
    """A corpus without a test split is refused before any index is built or
    any stage-2 run is trained."""

    @pytest.fixture
    def train_only(self, tmp_path):
        corpus = tmp_path / "train-only"
        assert main(["gen-data", "--out", str(corpus), *CORPUS_ARGS, "--test-fraction", "0", "--seed", "3"]) == 0
        return corpus

    @pytest.fixture
    def calls(self, monkeypatch):
        import umrlab.retrieval

        calls = []
        for module, name in ((cli, "build_index"), (umrlab.retrieval, "build_index"), (cli, "run_stage")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, real=real, **kwargs: calls.append(args) or real(*args, **kwargs)
            )
        return calls

    def test_eval_is_refused_before_the_index_is_built(self, workdir, tmp_path, train_only, calls, capsys):
        _, _, _, student = workdir
        out = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(student), "--corpus", str(train_only), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: corpus has no test queries\n"
        assert calls == [] and not out.exists()

    def test_sweep_is_refused_before_any_run(self, workdir, tmp_path, train_only, calls, capsys):
        _, _, _, student = workdir
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "--corpus", str(train_only), "--init", str(student), "--out-dir", str(out_dir),
            "--epochs", "1", "--batch", "4", "--steps-per-epoch", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: corpus has no test queries\n"
        assert calls == [] and not out_dir.exists()


class TestFlops:
    def test_prints_ratio(self, capsys):
        assert main(["flops", "--layers", "28", "--k", "12", "--seq", "256"]) == 0
        out = capsys.readouterr().out
        assert "0.4286" in out
        assert "0.473" in out
        assert "d=64)" in out

    def test_prints_the_embed_path_count(self, capsys):
        assert main(["flops", "--layers", "8", "--k", "3", "--seq", "21", "--d-model", "32"]) == 0
        out = capsys.readouterr().out
        assert "layer-stack ratio k/L: 0.3750\n" in out
        assert "embed flops(k=3, seq=21, d=32): 1278784\n" in out
        assert "embed flops(L=8, seq=21, d=32): 4141504\n" in out
        assert "embed layer-stack ratio k/L: 0.3085\n" in out

    def test_zero_seq_is_diagnosed(self, capsys):
        # refused as a flag, as --seeds and --limit are, not as a range of
        # a config built to hold it
        assert main(["flops", "--layers", "8", "--k", "3", "--seq", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seq must be >= 1, got 0\n"
        assert captured.out == ""

    def test_negative_seq_is_diagnosed(self, capsys):
        assert main(["flops", "--layers", "4", "--k", "2", "--seq", "-2"]) == 1
        assert capsys.readouterr().err == "error: --seq must be >= 1, got -2\n"

    def test_seq_one_is_counted(self, capsys):
        assert main(["flops", "--layers", "4", "--k", "2", "--seq", "1", "--d-model", "8"]) == 0
        assert "flops(k=2, seq=1, d=8): " in capsys.readouterr().out

    def test_zero_d_model_is_diagnosed(self, capsys):
        assert main(["flops", "--layers", "4", "--k", "2", "--seq", "8", "--d-model", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: all config extents must be positive")

    def test_k_zero(self, capsys):
        assert main(["flops", "--layers", "4", "--k", "0", "--seq", "8", "--d-model", "16"]) == 0
        out = capsys.readouterr().out
        assert f"flops(k=0, seq=8, d=16): {2 * 8 * 16}" in out

    @pytest.mark.parametrize("k", ["-1", "4"])
    def test_k_outside_zero_to_layers_is_diagnosed_by_the_estimate(self, capsys, k):
        assert main(["flops", "--layers", "3", "--k", k, "--seq", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: k {k} outside 0..3\n"
        assert captured.out == ""


class TestGradCheck:
    def test_exits_zero(self, capsys):
        assert main(["grad-check", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "worst" in out
        assert "encoder-batch[0]" in out
        assert "FAIL" not in out

    def test_broken_block_backward_fails_the_encoder_rows(self, monkeypatch, capsys):
        from umrlab import encoder

        vjp = encoder._blocks_vjp

        def broken(*args):
            grads = vjp(*args)
            grads[-1] = grads[-1] * 1.5  # the last block's ffn.b2
            return grads

        monkeypatch.setattr(encoder, "_blocks_vjp", broken)
        assert main(["grad-check", "--seeds", "1"]) == 1
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[:-1]]
        status = {name: word for word, name, *_ in rows}
        assert len(status) == 10
        assert status == {name: "FAIL" if name.startswith("encoder") else "ok" for name in status}
        assert status["encoder[0]"] == status["encoder-batch[0]"] == "FAIL"

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_diagnosed(self, monkeypatch, capsys, seeds):
        monkeypatch.setattr(cli, "gradient_suite", None)  # no check may run
        assert main(["grad-check", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --seeds must be >= 1, got {seeds}\n"
        assert captured.out == ""


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

    def test_non_numeric_lambda_is_diagnosed(self, workdir, capsys):
        root, corpus, _, student = workdir
        out_dir = root / "bad-sweep"
        code = main([
            "sweep", "--corpus", str(corpus), "--init", str(student),
            "--lambdas", "0.2,abc", "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "0.2,abc" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("lambdas", ["0.2,0.2", "0.5,0.2,0.50"])
    def test_repeated_lambda_is_diagnosed_before_any_run(self, workdir, capsys, lambdas):
        root, _, _, student = workdir
        out_dir = root / "repeat-sweep"
        # the corpus does not exist: the check comes before it is read
        code = main([
            "sweep", "--corpus", str(root / "no-corpus"), "--init", str(student),
            "--lambdas", lambdas, "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: --lambdas repeats a value: {lambdas!r}\n"
        assert not out_dir.exists()

    def test_lambda_that_rounds_the_temperature_to_zero_is_refused_before_any_run(
        self, workdir, capsys, monkeypatch
    ):
        root, corpus, _, student = workdir
        out_dir = root / "cold-sweep"
        monkeypatch.setattr(cli, "run_stage", None)  # no run may start
        code = main([
            "sweep", "--corpus", str(corpus), "--init", str(student),
            "--lambdas", "0.2,10", "--out-dir", str(out_dir), "--epochs", "3", "--batch", "4",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: tau0 0.05 and lambda 10.0 round the hard temperature of epoch 2 of 3 to 0.0\n"
        )
        assert not out_dir.exists()

    def test_nan_lambda_is_diagnosed(self, workdir, capsys):
        root, corpus, _, student = workdir
        out_dir = root / "nan-sweep"
        code = main([
            "sweep", "--corpus", str(corpus), "--init", str(student),
            "--lambdas", "0.2,nan", "--out-dir", str(out_dir),
            "--epochs", "1", "--batch", "4", "--steps-per-epoch", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: decay sparsity lam must be finite")
        assert not out_dir.exists()


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
            "train", "0", "--corpus", str(corpus), "--out", str(out),
            "--config", str(cfg), "--seed", "2",
        ]) == 0
        assert out.exists()

    def test_unknown_key_rejected(self, workdir, tmp_path, capsys):
        root, corpus, _, _ = workdir
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        code = main([
            "train", "0", "--corpus", str(corpus),
            "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg),
        ])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_repeated_key_rejected_naming_both_lines(self, tmp_path, capsys):
        # the last value used to win silently: 20 concepts, exit 0
        cfg = tmp_path / "data.cfg"
        cfg.write_text("concepts = 12\n# more\nseed = 3\nconcepts = 20\n")
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: concepts repeats line 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["stage", "scope", "k_eval"])
    def test_keys_no_command_reads_are_rejected(self, workdir, tmp_path, capsys, key):
        root, corpus, _, _ = workdir
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{key} = 1\n")
        out = tmp_path / "x.ckpt"
        code = main([
            "train", "0", "--corpus", str(corpus), "--out", str(out), "--config", str(cfg),
        ])
        assert code == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_each_command_accepts_exactly_its_setting_flags(self):
        parser = cli.build_parser()
        for name, keys in CONFIG_KEYS.items():
            args = parser.parse_args(argv_of(name))
            assert set(args.settings) == keys, name
            assert {a.dest for a in args.settings.values()} == keys
        args = parser.parse_args(["eval", "--checkpoint", "c", "--corpus", "d"])
        assert not hasattr(args, "config") and not hasattr(args, "settings")

    @pytest.mark.parametrize(
        "command,key,value",
        [("train", "concepts", "5"), ("train", "noise", "0.9"), ("gen-data", "epochs", "9"),
         ("gen-data", "lam", "0.5"), ("sweep", "lam", "0.5"), ("sweep", "k", "1"),
         ("sweep", "d_model", "8"), ("sweep", "alpha_mode", "dynamic")],
    )
    def test_key_of_another_command_is_rejected(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(f"{key} = {value}\n")
        for parser in parsers_of(command):
            code = main([*argv_of(parser), "--config", str(cfg)])
            assert code == 1
            assert capsys.readouterr().err == f"error: {cfg}:1: unknown config key {key!r}\n"

    def test_distill_normalize_is_no_setting(self, workdir, tmp_path, capsys):
        _, corpus, teacher, _ = workdir
        out = tmp_path / "x.ckpt"
        argv = ["train", "1", "--corpus", str(corpus), "--teacher", str(teacher), "--out", str(out)]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--distill-normalize"])
        assert err.value.code == 2
        cfg = tmp_path / "normalize.cfg"
        cfg.write_text("distill_normalize = on\n")
        assert main([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.endswith(f"error: {cfg}:1: unknown config key 'distill_normalize'\n")
        assert not out.exists()

    def test_eval_takes_no_config(self, workdir, tmp_path):
        _, corpus, _, student = workdir
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("tau0 = 0.05\n")
        with pytest.raises(SystemExit) as err:
            main(["eval", "--checkpoint", str(student), "--corpus", str(corpus), "--config", str(cfg)])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["gen-data", "sweep", "train"])
    def test_config_value_equals_its_flag(self, monkeypatch, tmp_path, command):
        """Every key, set in a file, gives each parser of the command what its
        flag gives; a flag given as well wins."""
        seen = []
        for name in ("cmd_gen_data", "cmd_train", "cmd_sweep"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
        for parser in parsers_of(command):
            seen.clear()
            values = {key: SAMPLE[key] for key in CONFIG_KEYS[parser]}
            settings = cli.build_parser().parse_args(argv_of(parser)).settings
            flags = []
            for key, value in values.items():
                flags += [settings[key].option_strings[0], value]
            cfg = tmp_path / "all.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
            assert main([*argv_of(parser), *flags]) == 0
            assert main([*argv_of(parser), "--config", str(cfg)]) == 0
            assert main([*argv_of(parser), "--config", str(cfg), "--seed", "11"]) == 0
            by_flag, by_file, overridden = (vars(a) for a in seen)
            for key in values:
                assert by_file[key] == by_flag[key] != settings[key].default, (parser, key)
            assert by_file["seed"] == 7 and overridden["seed"] == 11
            assert all(overridden[key] == by_file[key] for key in values if key != "seed")

    def test_value_outside_choices_rejected(self, workdir, tmp_path, capsys):
        root, corpus, _, _ = workdir
        cfg = tmp_path / "mode.cfg"
        cfg.write_text("epochs = 1\ntemp_mode = cosine\n")
        code = main([
            "train", "2", "--corpus", str(corpus), "--init", str(root / "student.ckpt"),
            "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: temp_mode = 'cosine' is not one of mac, reverse, off\n"
        )
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train 1"])
    def test_non_utf8_file_rejected(self, workdir, tmp_path, capsys, command):
        root, corpus, teacher, _ = workdir
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data", "--out", str(out)],
            "train 1": ["train", "1", "--corpus", str(corpus), "--teacher", str(teacher), "--out", str(out)],
        }[command]
        code = main([*argv, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {cfg}: not UTF-8 text (byte 0)\n"
        assert not out.exists()

    def test_non_numeric_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "data.cfg"
        cfg.write_text("concepts = abc\n")
        code = main(["gen-data", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "concepts" in err and str(cfg) in err


COMMANDS = [
    "gen-data", "train", "prune", "embed", "index", "search", "eval", "flops", "grad-check", "sweep",
]


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["flops", "--layers", "4", "--k", "1", "--seq", "8", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: umrlab {command} ")

    @pytest.mark.parametrize("stage", ["0", "1", "2"])
    def test_stage_help_exits_zero(self, capsys, stage):
        with pytest.raises(SystemExit) as err:
            main(["train", stage, "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: umrlab train {stage} ")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out

    def test_eval_takes_no_seed(self, workdir):
        _, corpus, _, student = workdir
        with pytest.raises(SystemExit) as err:
            main(["eval", "--checkpoint", str(student), "--corpus", str(corpus), "--seed", "1"])
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
