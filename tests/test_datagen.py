import json

import numpy as np
import pytest

from umrlab.datagen import (
    IMAGE_BASE,
    TEXT_BASE,
    Corpus,
    CorpusSpec,
    generate_corpus,
    render,
    vocab_size_for,
)
from umrlab.errors import ConfigurationError, ContractError, FormatError
from umrlab.prompts import RESERVED_IDS
from umrlab.tasks import CANDIDATE_MODALITY, QUERY_MODALITY

SMALL_SPEC = CorpusSpec(
    n_concepts=12,
    tasks=("t2t", "t2i", "it2i"),
    text_vocab_size=50,
    image_vocab_size=60,
    n_t=4,
    n_i=6,
    noise=0.1,
    distractors=2,
    test_fraction=0.25,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SMALL_SPEC, seed=7)


class TestRender:
    def test_noiseless_render_is_pure(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(99)
        a = render(SMALL_SPEC, 3, "text", 0.0, rng1)
        b = render(SMALL_SPEC, 3, "text", 0.0, rng2)
        assert a == b

    def test_distinct_concepts_render_distinct(self):
        seen = set()
        rng = np.random.default_rng(0)
        for concept in range(SMALL_SPEC.n_concepts):
            for modality in ("text", "image", "image_text"):
                seen.add((modality, render(SMALL_SPEC, concept, modality, 0.0, rng)))
        assert len(seen) == 3 * SMALL_SPEC.n_concepts

    def test_image_text_is_image_then_text(self):
        rng = np.random.default_rng(1)
        toks = render(SMALL_SPEC, 5, "image_text", 0.0, rng)
        assert len(toks) == SMALL_SPEC.n_i + SMALL_SPEC.n_t
        assert all(t in SMALL_SPEC.image_range for t in toks[: SMALL_SPEC.n_i])
        assert all(t in SMALL_SPEC.text_range for t in toks[SMALL_SPEC.n_i :])

    def test_noise_resamples_within_range(self):
        rng = np.random.default_rng(2)
        toks = render(SMALL_SPEC, 5, "text", 0.9, rng)
        assert all(t in SMALL_SPEC.text_range for t in toks)


class TestGenerateCorpus:
    def test_deterministic_in_seed(self, tmp_path):
        a = generate_corpus(SMALL_SPEC, seed=3)
        b = generate_corpus(SMALL_SPEC, seed=3)
        a.save(tmp_path / "a")
        b.save(tmp_path / "b")
        for name in ("queries.jsonl", "candidates.jsonl", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self):
        a = generate_corpus(SMALL_SPEC, seed=3)
        b = generate_corpus(SMALL_SPEC, seed=4)
        ta = [s.tokens for s in a.all_queries()]
        tb = [s.tokens for s in b.all_queries()]
        assert ta != tb

    def test_pool_sizes(self, corpus):
        for dataset, pool in corpus.pools.items():
            assert len(pool) == SMALL_SPEC.n_concepts * (1 + SMALL_SPEC.distractors)

    def test_gold_exists_in_local_pool(self, corpus):
        for sample in corpus.all_queries():
            local = {c.id for c in corpus.pools[sample.dataset]}
            assert sample.gold in local

    def test_split_fractions(self, corpus):
        n_test_concepts = round(SMALL_SPEC.test_fraction * SMALL_SPEC.n_concepts)
        assert len(corpus.test) == n_test_concepts * len(SMALL_SPEC.tasks)
        assert len(corpus.train) + len(corpus.test) == SMALL_SPEC.n_concepts * len(SMALL_SPEC.tasks)

    def test_modalities_follow_task_sides(self, corpus):
        for s in corpus.all_queries():
            assert s.modality == QUERY_MODALITY[s.task]
        for dataset, pool in corpus.pools.items():
            task = dataset.removeprefix("ds-")
            assert all(c.modality == CANDIDATE_MODALITY[task] for c in pool)

    def test_vocab_discipline_exhaustive(self, corpus):
        for c in corpus.all_candidates():
            if c.modality == "text":
                assert all(t in SMALL_SPEC.text_range for t in c.tokens)
            elif c.modality == "image":
                assert all(t in SMALL_SPEC.image_range for t in c.tokens)
            else:
                image, text = c.tokens[: SMALL_SPEC.n_i], c.tokens[SMALL_SPEC.n_i :]
                assert all(t in SMALL_SPEC.image_range for t in image)
                assert all(t in SMALL_SPEC.text_range for t in text)
            assert all(t >= RESERVED_IDS for t in c.tokens)

    def test_candidate_ids_unique(self, corpus):
        ids = [c.id for c in corpus.all_candidates()]
        assert len(ids) == len(set(ids))

    def test_empty_task_set_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_corpus(CorpusSpec(n_concepts=4, tasks=()), seed=0)

    def test_vocab_overlap_rejected(self):
        with pytest.raises(ContractError):
            CorpusSpec(text_vocab_size=IMAGE_BASE - TEXT_BASE + 1)

    def test_vocab_size_covers_everything(self, corpus):
        v = vocab_size_for(SMALL_SPEC)
        for c in corpus.all_candidates():
            assert max(c.tokens) < v


class TestPools:
    def test_gold_present_in_both_scopes(self, corpus):
        sample = corpus.test[0]
        assert sample.gold in {c.id for c in corpus.pools[sample.dataset]}
        assert sample.gold in {c.id for c in corpus.all_candidates()}


class TestRoundTrip:
    def test_save_load_preserves_everything(self, corpus, tmp_path):
        corpus.save(tmp_path / "c")
        loaded = Corpus.load(tmp_path / "c")
        assert loaded.spec == corpus.spec
        assert loaded.seed == corpus.seed
        assert [s.id for s in loaded.train] == [s.id for s in corpus.train]
        assert [s.id for s in loaded.test] == [s.id for s in corpus.test]
        assert [s.gold for s in loaded.all_queries()] == [s.gold for s in corpus.all_queries()]
        assert {d: [c.id for c in p] for d, p in loaded.pools.items()} == {
            d: [c.id for c in p] for d, p in corpus.pools.items()
        }
        assert loaded.all_queries()[0].tokens == corpus.all_queries()[0].tokens

    def test_saved_files_are_jsonl_with_stable_keys(self, corpus, tmp_path):
        corpus.save(tmp_path / "c")
        with open(tmp_path / "c" / "queries.jsonl") as f:
            first = json.loads(f.readline())
        assert list(first.keys()) == ["id", "task", "dataset", "modality", "tokens", "gold", "instr"]
        with open(tmp_path / "c" / "candidates.jsonl") as f:
            first = json.loads(f.readline())
        assert list(first.keys()) == ["id", "dataset", "modality", "tokens", "concept"]


BAD = 5  # the line each case below rewrites


def _rewrite(mutate):
    def change(corpus, lines):
        record = json.loads(lines[BAD])
        mutate(corpus, record)
        return (json.dumps(record) + "\n").encode()

    return change


def _other_dataset_candidate(corpus, query):
    return next(c.id for c in corpus.all_candidates() if c.dataset != query["dataset"])


BAD_LINES = {
    "duplicate-query-id": ("queries.jsonl", lambda corpus, lines: lines[0]),
    "duplicate-candidate-id": ("candidates.jsonl", lambda corpus, lines: lines[0]),
    "gold-in-other-dataset": (
        "queries.jsonl",
        _rewrite(lambda corpus, r: r.update(gold=_other_dataset_candidate(corpus, r))),
    ),
    "gold-names-nothing": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(gold=10**9))),
    "query-missing-key": ("queries.jsonl", _rewrite(lambda corpus, r: r.pop("tokens"))),
    "candidate-missing-key": ("candidates.jsonl", _rewrite(lambda corpus, r: r.pop("dataset"))),
    "bad-json": ("candidates.jsonl", lambda corpus, lines: b'{"id": 3,\n'),
    "not-an-object": ("queries.jsonl", lambda corpus, lines: b"[1, 2]\n"),
}


class TestLoadValidation:
    @pytest.mark.parametrize("case", list(BAD_LINES))
    def test_bad_line_reported_with_file_and_offset(self, corpus, tmp_path, case):
        name, change = BAD_LINES[case]
        corpus.save(tmp_path / "c")
        path = tmp_path / "c" / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[BAD] = change(corpus, lines)
        path.write_bytes(b"".join(lines))
        with pytest.raises(FormatError, match=name) as err:
            Corpus.load(tmp_path / "c")
        assert err.value.offset == sum(len(line) for line in lines[:BAD])

    @pytest.mark.parametrize("meta", [b'{"seed": 0,', b'{"seed": 0}', b"[]"])
    def test_bad_meta_rejected(self, corpus, tmp_path, meta):
        corpus.save(tmp_path / "c")
        (tmp_path / "c" / "meta.json").write_bytes(meta)
        with pytest.raises(FormatError, match="meta.json"):
            Corpus.load(tmp_path / "c")
