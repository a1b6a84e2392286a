import struct
import tracemalloc

import numpy as np
import pytest

from umrlab import tensor as T
from umrlab.datagen import CorpusSpec, generate_corpus, vocab_size_for
from umrlab.encoder import Encoder, EncoderConfig, embed, forward
from umrlab.errors import ContractError, FormatError
from umrlab.prompts import assemble_prompt
from umrlab.retrieval import (
    EMBED_CHUNK,
    EmbeddingIndex,
    SeparationStats,
    build_index,
    config_fingerprint,
    embed_prompts,
    embed_query,
    evaluate,
    load_index,
    modality_separation,
    pca_coords,
    recall_at_k,
    save_index,
    search_topk,
    write_pca_csv,
)
from umrlab.tasks import MODALITIES

SPEC = CorpusSpec(
    n_concepts=12,
    tasks=("t2t", "t2i", "i2t"),
    text_vocab_size=60,
    image_vocab_size=60,
    n_t=4,
    n_i=6,
    noise=0.05,
    distractors=1,
    test_fraction=0.25,
)
ENC = EncoderConfig(
    vocab_size=vocab_size_for(SPEC), d_model=8, n_heads=2, n_layers=2, max_seq=24, k=2
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SPEC, seed=3)


@pytest.fixture(scope="module")
def encoder():
    return Encoder.init(ENC, seed=1)


@pytest.fixture(scope="module")
def index(encoder, corpus):
    return build_index(encoder, corpus.all_candidates())


def toy_index(vectors, ids=None, modalities=None, datasets=None, names=("ds-a",)):
    v = np.asarray(vectors, dtype=np.float32)
    n = len(v)
    return EmbeddingIndex(
        ids=np.asarray(ids if ids is not None else range(n), dtype=np.int64),
        modality_codes=np.asarray(modalities if modalities is not None else [0] * n, dtype=np.uint8),
        dataset_codes=np.asarray(datasets if datasets is not None else [0] * n, dtype=np.uint8),
        vectors=v,
        dataset_names=names,
    )


class TestBuildIndex:
    def test_empty(self, encoder):
        idx = build_index(encoder, [])
        assert len(idx) == 0

    def test_deterministic_bitwise(self, encoder, corpus):
        a = build_index(encoder, corpus.all_candidates())
        b = build_index(encoder, corpus.all_candidates())
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert np.array_equal(a.ids, b.ids)

    def test_vectors_normalized(self, index):
        norms = np.linalg.norm(index.vectors.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6

    def test_vector_matches_independent_recompute(self, encoder, corpus, index):
        cand = corpus.all_candidates()[5]
        seq = assemble_prompt(cand, "candidate", ENC.max_seq)
        hidden = forward(encoder, seq, ENC.n_layers)
        raw = hidden.data[seq.ret_position]
        want = (raw / np.linalg.norm(raw)).astype(np.float32)
        row = int(np.where(index.ids == cand.id)[0][0])
        assert index.vectors[row].tobytes() == want.tobytes()

    def test_mixed_lengths_across_chunks_match_single_embeds(self):
        spec = CorpusSpec(
            n_concepts=40, tasks=("t2t", "i2i", "t2it"), text_vocab_size=60, image_vocab_size=60
        )
        cfg = EncoderConfig(
            vocab_size=vocab_size_for(spec), d_model=8, n_heads=2, n_layers=2, max_seq=32, k=1
        )
        enc = Encoder.init(cfg, seed=5)
        by_length: dict[int, list] = {}
        for cand in generate_corpus(spec, seed=1).all_candidates():
            by_length.setdefault(len(assemble_prompt(cand, "candidate")), []).append(cand)
        assert sorted(by_length) == [13, 21, 29]
        assert min(len(group) for group in by_length.values()) > EMBED_CHUNK
        # round-robin over the three lengths, so no two neighbours share one
        groups = [by_length[n] for n in (21, 13, 29)]
        mixed = [c for trio in zip(*groups) for c in trio]
        for depth in (1, 2):
            idx = build_index(enc, mixed, k_layers=depth)
            assert idx.ids.tolist() == [c.id for c in mixed]
            want = np.stack([
                embed_prompts(enc, [assemble_prompt(c, "candidate", cfg.max_seq)], depth)[0]
                for c in mixed
            ]).astype(np.float32)
            assert idx.vectors.tobytes() == want.tobytes()


def full_sort_topk(index, query, k, codes=None):
    """search_topk's ranking by one lexsort over every kept row."""
    keep = slice(None) if codes is None else np.isin(index.dataset_codes, codes)
    ids = index.ids[keep]
    scores = index.vectors[keep].astype(np.float64) @ query
    return [(int(ids[i]), float(scores[i])) for i in np.lexsort((ids, -scores))[:k]]


class TestSearch:
    def test_exact_match_on_orthonormal_rows(self):
        idx = toy_index(np.eye(12))
        out = search_topk(idx, np.eye(12)[7], 1)
        assert out[0][0] == 7
        assert out[0][1] == pytest.approx(1.0)

    def test_orthogonal_query_ties_broken_by_id(self):
        v = np.zeros((5, 4), dtype=np.float32)
        v[:, 0] = 1.0
        idx = toy_index(v, ids=[9, 3, 7, 1, 5])
        query = np.array([0.0, 1.0, 0.0, 0.0])
        out = search_topk(idx, query, 5)
        assert [i for i, _ in out] == [1, 3, 5, 7, 9]
        assert all(s == 0.0 for _, s in out)

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_matches_exhaustive_sort_oracle(self, k):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(1000, 16))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        ids = rng.permutation(5000)[:1000]
        idx = toy_index(v, ids=ids)
        for qseed in range(10):
            q = np.random.default_rng(qseed).normal(size=16)
            q /= np.linalg.norm(q)
            got = search_topk(idx, q, k)
            scores = idx.vectors.astype(np.float64) @ q
            oracle = sorted(zip(ids.tolist(), scores.tolist()), key=lambda p: (-p[1], p[0]))[:k]
            assert [i for i, _ in got] == [i for i, _ in oracle]

    @pytest.mark.parametrize("values", ["normal", "ties", "nan-and-signed-zero"])
    def test_partial_select_matches_full_sort(self, values):
        rng = np.random.default_rng(len(values))
        for _ in range(200):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            if values == "normal":
                v, q = rng.normal(size=(n, d)), rng.normal(size=d)
            elif values == "ties":
                v, q = rng.integers(-2, 3, size=(n, d)), rng.integers(-1, 2, size=d).astype(float)
            else:
                v = rng.choice([0.0, -0.0, 1.0, -1.0, np.nan], size=(n, d))
                q = rng.choice([0.0, -0.0, 1.0, 0.5], size=d)
            codes = rng.integers(0, 2, size=n)
            idx = toy_index(v, ids=rng.permutation(4 * n)[:n], datasets=codes, names=("a", "b"))
            k = int(rng.integers(1, n + 2))
            for scope, codes_kept in ((None, None), (["b"], [1]), (["b", "a"], [0, 1])):
                got = search_topk(idx, q, k, scope)
                want = full_sort_topk(idx, q, k, codes_kept)
                assert [i for i, _ in got] == [i for i, _ in want]
                scores = [np.array([s for _, s in hits]).tobytes() for hits in (got, want)]
                assert scores[0] == scores[1]

    def test_scope_filter_and_empty_pool(self):
        idx = toy_index(np.eye(4), datasets=[0, 0, 1, 1], names=("ds-a", "ds-b"))
        out = search_topk(idx, np.eye(4)[0], 2, ["ds-b"])
        assert [i for i, _ in out] == [2, 3]
        empty = toy_index(np.eye(2), datasets=[0, 0], names=("ds-a", "ds-b"))
        assert search_topk(empty, np.eye(2)[0], 3, ["ds-b"]) == []

    @pytest.mark.parametrize("name", ["ds-z", 0], ids=["unknown-name", "integer-code"])
    def test_filter_by_unknown_dataset_rejected(self, name):
        idx = toy_index(np.eye(2), names=("ds-a",))
        with pytest.raises(ContractError, match=f"dataset {name!r} is not in the index"):
            search_topk(idx, np.eye(2)[0], 1, [name])

    def test_k_must_be_positive(self):
        with pytest.raises(ContractError):
            search_topk(toy_index(np.eye(2)), np.eye(2)[0], 0)

    def test_replaced_vectors_are_scored(self):
        idx = toy_index(np.eye(3))
        assert search_topk(idx, np.eye(3)[0], 1)[0][0] == 0
        idx.vectors = np.eye(3, dtype=np.float32)[::-1].copy()
        assert search_topk(idx, np.eye(3)[0], 1)[0][0] == 2


class TestRecall:
    def test_gold_always_first(self):
        ranked = {i: [i, 99] for i in range(4)}
        gold = {i: i for i in range(4)}
        assert recall_at_k(ranked, gold, 1) == 1.0

    def test_gold_never_found(self):
        ranked = {i: [99, 98] for i in range(4)}
        gold = {i: i for i in range(4)}
        assert recall_at_k(ranked, gold, 2) == 0.0

    def test_hand_counted_fixture(self):
        # gold of query i sits at rank ranks[i]; 5 of 10 ranks are <= 5
        ranks = [1, 2, 3, 4, 5, 6, 7, 11, 12, 13]
        ranked = {}
        gold = {}
        for q, rank in enumerate(ranks):
            row = [1000 + q * 100 + j for j in range(15)]
            row[rank - 1] = q
            ranked[q] = row
            gold[q] = q
        assert recall_at_k(ranked, gold, 5) == 0.5

    def test_missing_results_count_as_miss(self):
        ranked = {0: [0]}
        gold = {0: 0, 1: 1}
        assert recall_at_k(ranked, gold, 5) == 0.5

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        ranked = {q: rng.permutation(30).tolist() for q in range(20)}
        gold = {q: q for q in range(20)}
        values = [recall_at_k(ranked, gold, k) for k in (1, 3, 5, 10, 30)]
        assert values == sorted(values)


class TestSeparation:
    def test_constructed_orthogonal_groups(self):
        v = np.array(
            [[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]], dtype=np.float32
        )
        stats = modality_separation(toy_index(v, modalities=[0, 0, 1, 1]))
        assert stats.intra == pytest.approx(1.0)
        assert stats.inter == pytest.approx(0.0)
        assert stats.gap == pytest.approx(1.0)

    def test_identical_vectors_zero_gap(self):
        v = np.ones((4, 3), dtype=np.float32) / np.sqrt(3)
        stats = modality_separation(toy_index(v, modalities=[0, 0, 1, 1]))
        assert stats.gap == pytest.approx(0.0)

    def test_single_modality_rejected(self):
        with pytest.raises(ContractError):
            modality_separation(toy_index(np.eye(3)))

    def test_tiny_groups_rejected(self):
        with pytest.raises(ContractError):
            modality_separation(toy_index(np.eye(3), modalities=[0, 0, 1]))

    def test_matches_all_pairs_reference(self):
        rng = np.random.default_rng(4)
        modalities = np.repeat([0, 1, 2], [7, 2, 12])
        v = rng.normal(size=(len(modalities), 5))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[3] = 0.0
        idx = toy_index(v, modalities=rng.permutation(modalities))
        # brute force over the full N x N cosine matrix, self-pairs excluded
        w = idx.vectors.astype(np.float64)
        sims = w @ w.T
        same = idx.modality_codes[:, None] == idx.modality_codes[None, :]
        off_diag = ~np.eye(len(w), dtype=bool)
        stats = modality_separation(idx)
        assert stats.intra == pytest.approx(sims[same & off_diag].mean(), abs=1e-12)
        assert stats.inter == pytest.approx(sims[~same].mean(), abs=1e-12)


class TestIndexIO:
    def test_round_trip_preserves_search(self, index, encoder, corpus, tmp_path):
        path = tmp_path / "pool.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        q = embed_query(encoder, corpus.test[0])
        before = search_topk(index, q, 7)
        after = search_topk(loaded, q, 7)
        assert before == after

    def test_built_and_loaded_vectors_are_read_only(self, index, tmp_path):
        path = tmp_path / "pool.idx"
        save_index(index, path)
        for idx in (index, load_index(path)):
            with pytest.raises(ValueError, match="read-only"):
                idx.vectors[0] = 0.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_index(p)

    def test_truncated_record(self, index, tmp_path):
        p = tmp_path / "cut.idx"
        save_index(index, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 5])
        last = len(index) - 1
        with pytest.raises(FormatError, match=f"truncated index record {last}") as err:
            load_index(p)
        assert err.value.offset == 16 + last * (8 + 4 * index.dim)

    @pytest.mark.parametrize("bad_id", [2**32, -1])
    def test_id_outside_u32_rejected_before_writing(self, tmp_path, bad_id):
        idx = toy_index(np.eye(2), ids=[0, bad_id])
        p = tmp_path / "wide.idx"
        with pytest.raises(ContractError, match=str(bad_id)):
            save_index(idx, p)
        assert not p.exists()

    @pytest.mark.parametrize("count,dim", [(2**32 - 1, 2**32 - 1), (50_000_000, 32)])
    def test_oversized_header_rejected_before_allocating(self, tmp_path, count, dim):
        p = tmp_path / "huge.idx"
        p.write_bytes(b"PUMAIDX1" + struct.pack("<II", count, dim))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated index record 0") as err:
                load_index(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.offset == 16
        assert peak < 2**20

    @pytest.mark.parametrize("dim", [2**29, 2**32 - 1])
    def test_empty_index_with_unrepresentable_dim_rejected(self, tmp_path, dim):
        p = tmp_path / "wide.idx"
        p.write_bytes(b"PUMAIDX1" + struct.pack("<II", 0, dim))
        with pytest.raises(FormatError) as err:
            load_index(p)
        assert err.value.offset == 12

    def test_modality_code_outside_modalities_rejected_at_its_byte(self, index, tmp_path):
        p = tmp_path / "pool.idx"
        save_index(index, p)
        blob = bytearray(p.read_bytes())
        record = 8 + 4 * index.dim
        at = 16 + 3 * record + 4
        blob[at] = len(MODALITIES)
        blob[16 + 5 * record + 4] = 255
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"index record 3 has modality code {len(MODALITIES)}") as err:
            load_index(p)
        assert err.value.offset == at

    def test_trailing_bytes_rejected(self, index, tmp_path):
        p = tmp_path / "long.idx"
        save_index(index, p)
        size = p.stat().st_size
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes") as err:
            load_index(p)
        assert err.value.offset == size

    def test_file_bytes_match_record_layout(self, index, tmp_path):
        p = tmp_path / "pool.idx"
        save_index(index, p)
        want = bytearray(b"PUMAIDX1" + struct.pack("<II", len(index), index.dim))
        for i in range(len(index)):
            codes = (index.modality_codes[i], index.dataset_codes[i])
            want += struct.pack("<IBB", index.ids[i], *codes)
            want += b"\x00\x00" + index.vectors[i].astype("<f4").tobytes()
        assert p.read_bytes() == bytes(want)
        loaded = load_index(p)
        assert loaded.ids.dtype == np.int64 and np.array_equal(loaded.ids, index.ids)
        assert np.array_equal(loaded.modality_codes, index.modality_codes)
        assert np.array_equal(loaded.dataset_codes, index.dataset_codes)

    def test_empty_index_file_valid(self, tmp_path):
        empty = toy_index(np.zeros((0, 4), dtype=np.float32), ids=[], modalities=[], datasets=[])
        p = tmp_path / "empty.idx"
        save_index(empty, p)
        loaded = load_index(p)
        assert len(loaded) == 0
        assert loaded.dim == 4


class TestEvaluate:
    def test_unknown_scope_rejected(self, encoder, corpus):
        with pytest.raises(ContractError):
            evaluate(encoder, corpus, scopes=("cosmic",))

    def test_local_dominates_global(self, encoder, corpus):
        report = evaluate(encoder, corpus, scopes=("local", "global"), ks=(5,))
        cells = {}
        for r in report.rows:
            cells[(r.task, r.dataset, r.scope)] = r.recall
        for (task, dataset, scope), recall in cells.items():
            if scope == "local":
                assert recall >= cells[(task, dataset, "global")]

    def test_recall_monotone_in_k(self, encoder, corpus):
        report = evaluate(encoder, corpus, scopes=("local",), ks=(1, 5, 10))
        for dataset in {r.dataset for r in report.rows}:
            values = [r.recall for r in sorted(report.rows, key=lambda r: r.k) if r.dataset == dataset]
            assert values == sorted(values)

    def test_same_checkpoint_twice_identical(self, encoder, corpus):
        a = evaluate(encoder, corpus, scopes=("local",), ks=(5,))
        b = evaluate(encoder, corpus, scopes=("local",), ks=(5,))
        assert a.rows == b.rows

    def test_k_override_replaces_default(self, encoder, corpus):
        report = evaluate(
            encoder, corpus, scopes=("local",), ks=(5,), k_overrides={"ds-t2i": 10}
        )
        ks = {r.dataset: r.k for r in report.rows}
        assert ks["ds-t2i"] == 10
        assert ks["ds-t2t"] == 5

    def test_csv_columns(self, encoder, corpus, tmp_path):
        report = evaluate(
            encoder, corpus, scopes=("local",), ks=(5,),
            checkpoint="x.ckpt", settings={"lam": 0.2},
        )
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "task,dataset,scope,k,recall,checkpoint,config_hash"
        assert len(lines) == 1 + len(report.rows)

    def test_distinct_settings_distinct_hashes(self):
        hashes = {config_fingerprint({"lam": v}) for v in (0.2, 0.5, 0.7)}
        assert len(hashes) == 3


class TestPca:
    def test_shape_and_csv(self, index, tmp_path):
        coords = pca_coords(index)
        assert coords.shape == (len(index), 2)
        path = tmp_path / "pca.csv"
        write_pca_csv(index, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,modality,x,y"
        assert len(lines) == 1 + len(index)
