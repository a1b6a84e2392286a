import hashlib
import json

import numpy as np
import pytest

from umrlab.datagen import (
    IMAGE_BASE,
    TEXT_BASE,
    Corpus,
    CorpusSpec,
    _item_rngs,
    _renderings,
    _resample,
    generate_corpus,
    vocab_size_for,
)
from umrlab.errors import ConfigurationError, ContractError, FormatError
from umrlab.prompts import RESERVED_IDS, RET_TOKEN_ID
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
TEXT_IDS = range(TEXT_BASE, TEXT_BASE + SMALL_SPEC.text_vocab_size)
IMAGE_IDS = range(IMAGE_BASE, IMAGE_BASE + SMALL_SPEC.image_vocab_size)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SMALL_SPEC, seed=7)


def reference_base_tokens(spec, concept, part):
    """The splitmix64 rendering on Python integers, one token at a time."""
    mask = (1 << 64) - 1
    if part == "text":
        base, size, length, code = TEXT_BASE, spec.text_vocab_size, spec.n_t, 0
    else:
        base, size, length, code = IMAGE_BASE, spec.image_vocab_size, spec.n_i, 1
    out = []
    for j in range(length):
        x = (concept * 0x2545F4914F6CDD1D ^ (j + 1) * 0x9E3779B9 ^ code) + 0x9E3779B97F4A7C15 & mask
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & mask
        x = (x ^ x >> 27) * 0x94D049BB133111EB & mask
        out.append(base + (x ^ x >> 31) % size)
    return out


def reference_renderings(spec, concept):
    """The noiseless rendering of ``concept`` in each modality."""
    out = {part: reference_base_tokens(spec, concept, part) for part in ("text", "image")}
    out["image_text"] = out["image"] + out["text"]
    return out


class TestRender:
    @pytest.mark.parametrize("concept", [0, 1, 7, 11, 2**31 + 3, 2**40 + 7, 2**63 + 1])
    def test_noiseless_render_equals_the_integer_reference(self, concept):
        rng = np.random.default_rng(0)
        renderings = _renderings(SMALL_SPEC, [concept])
        for modality, tokens in reference_renderings(SMALL_SPEC, concept).items():
            rows, vocab = renderings[modality]
            assert _resample(rows[0], vocab, 0.0, rng) == tuple(tokens)

    def test_noiseless_render_is_pure(self):
        rows, vocab = _renderings(SMALL_SPEC, [3])["text"]
        a = _resample(rows[0], vocab, 0.0, np.random.default_rng(0))
        b = _resample(rows[0], vocab, 0.0, np.random.default_rng(99))
        assert a == b == tuple(rows[0])

    def test_distinct_concepts_render_distinct(self):
        renderings = _renderings(SMALL_SPEC, range(SMALL_SPEC.n_concepts))
        for rows, _ in renderings.values():
            assert len({tuple(row) for row in rows}) == SMALL_SPEC.n_concepts

    def test_image_text_is_image_then_text(self):
        rows, vocab = _renderings(SMALL_SPEC, [5])["image_text"]
        toks = rows[0]
        assert len(toks) == len(vocab) == SMALL_SPEC.n_i + SMALL_SPEC.n_t
        assert all(t in IMAGE_IDS for t in toks[: SMALL_SPEC.n_i])
        assert all(t in TEXT_IDS for t in toks[SMALL_SPEC.n_i :])

    def test_noise_resamples_within_range(self):
        rows, vocab = _renderings(SMALL_SPEC, [5])["text"]
        toks = _resample(rows[0], vocab, 0.9, np.random.default_rng(2))
        assert toks != tuple(rows[0])
        assert all(t in TEXT_IDS for t in toks)

    def test_noiseless_render_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        rows, vocab = _renderings(SMALL_SPEC, [5])["image_text"]
        _resample(rows[0], vocab, 0.0, rng)
        assert rng.bit_generator.state == before

    def test_noiseless_corpus_items_are_renderings_of_their_concept(self):
        spec = CorpusSpec(n_concepts=7, tasks=("t2i", "it2t"), noise=0.0, distractors=2)
        corpus = generate_corpus(spec, seed=5)
        for c in corpus.all_candidates():
            assert c.tokens == tuple(reference_renderings(spec, c.concept)[c.modality])
        for q in corpus.all_queries():
            concept = corpus.candidate_by_id(q.gold).concept
            assert q.tokens == tuple(reference_renderings(spec, concept)[q.modality])


# SHA-256 of each saved file: a change to the hash, the seeding, numpy's
# streams or the record layout that moves one byte fails here
PINNED_CORPORA = {
    "default-tasks": (
        CorpusSpec(n_concepts=12, n_t=4, n_i=6, text_vocab_size=30, image_vocab_size=30),
        5,
        {
            "queries.jsonl": "bb0bf91990679dc66dedbb53f7134eb2fd6296bf75b8ea93940fce08a6c5140e",
            "candidates.jsonl": "e4f2c8a061c57bea12d51ea489b95a696478f584c7351f8f14349ec69058d1d7",
            "meta.json": "8daae76a53682ba6aa6b652394a74e4dda8d5caf87c22c8f139d222d0fb3a8b2",
        },
    ),
    "noise-0": (
        CorpusSpec(n_concepts=10, noise=0.0, n_t=3, n_i=5),
        2,
        {
            "queries.jsonl": "12d3971910bc6b654181404085f5f30bf898f7fbbd349e62af37e66746cd5590",
            "candidates.jsonl": "24bcc84055079725303dc138302645fe92bcd2f9fa8897d0fd92a3739e8b44fe",
            "meta.json": "a9a335d4f4495208e6f98a1db674023302da96fc6349ce5351e1552b8b7c241d",
        },
    ),
    "subset-4-distractors": (
        CorpusSpec(n_concepts=9, tasks=("t2i", "t2t", "it2i"), noise=0.3, distractors=4),
        2**32 + 5,
        {
            "queries.jsonl": "51e47f9646168dc3e8b02fbf303eb0df2aa6f66fc65d8d747a8aa638e570dda5",
            "candidates.jsonl": "99b34dba7fb0e71c9ac0be82c09ec3408ec40a933a69ca9cb69cac548830f5a6",
            "meta.json": "841cd866b106d343ec455c8c0ae7d13f25ea1a651e366ba71b421160902c8125",
        },
    ),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", list(PINNED_CORPORA))
    def test_saved_files_match_pinned_digests(self, tmp_path, name):
        spec, seed, digests = PINNED_CORPORA[name]
        generate_corpus(spec, seed).save(tmp_path)
        got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
        assert got == digests

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3])
    def test_item_generator_state_equals_default_rng(self, seed):
        item_rng = _item_rngs(seed)
        for ti, concept, role in [(0, 0, 0), (0, 3, 1), (2, 11, 0), (5, 1999, 3), (7, 2**31, 9)]:
            want = np.random.default_rng([seed, 1, ti, concept, role]).bit_generator.state
            assert item_rng(ti, concept, role).bit_generator.state == want


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
                assert all(t in TEXT_IDS for t in c.tokens)
            elif c.modality == "image":
                assert all(t in IMAGE_IDS for t in c.tokens)
            else:
                image, text = c.tokens[: SMALL_SPEC.n_i], c.tokens[SMALL_SPEC.n_i :]
                assert all(t in IMAGE_IDS for t in image)
                assert all(t in TEXT_IDS for t in text)
            assert all(t >= RESERVED_IDS for t in c.tokens)

    def test_candidate_ids_unique(self, corpus):
        ids = [c.id for c in corpus.all_candidates()]
        assert len(ids) == len(set(ids))

    def test_empty_task_set_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_corpus(CorpusSpec(n_concepts=4, tasks=()), seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            generate_corpus(SMALL_SPEC, seed=-1)

    def test_seeds_a_word_apart_differ(self):
        # a seed at or past 2**32 seeds with two words, not its low word alone
        a = generate_corpus(SMALL_SPEC, seed=5)
        b = generate_corpus(SMALL_SPEC, seed=2**32 + 5)
        assert [s.tokens for s in a.all_queries()] != [s.tokens for s in b.all_queries()]

    def test_vocab_overlap_rejected(self):
        with pytest.raises(ContractError):
            CorpusSpec(text_vocab_size=IMAGE_BASE - TEXT_BASE + 1)

    @pytest.mark.parametrize(
        "field,value",
        [("text_vocab_size", 0), ("image_vocab_size", 0), ("n_t", -1), ("n_i", -1), ("distractors", -1)],
    )
    def test_bad_extent_rejected(self, field, value):
        with pytest.raises(ContractError, match="at least 1 token" if "vocab" in field else ">= 0"):
            CorpusSpec(**{field: value})

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
        assert list(first.keys()) == ["id", "task", "tokens", "gold"]
        with open(tmp_path / "c" / "candidates.jsonl") as f:
            first = json.loads(f.readline())
        assert list(first.keys()) == ["id", "task", "tokens", "concept"]


BAD = 5  # the line each case below rewrites


def _rewrite(mutate):
    def change(corpus, lines):
        record = json.loads(lines[BAD])
        mutate(corpus, record)
        return (json.dumps(record) + "\n").encode()

    return change


def _other_task_candidate(corpus, query):
    return next(c.id for c in corpus.all_candidates() if c.task != query["task"])


def _other_spec_task(corpus, record):
    return next(t for t in corpus.spec.tasks if t != record["task"])


BAD_LINES = {
    "duplicate-query-id": ("queries.jsonl", lambda corpus, lines: lines[0]),
    "duplicate-candidate-id": ("candidates.jsonl", lambda corpus, lines: lines[0]),
    "gold-in-other-dataset": (
        "queries.jsonl",
        _rewrite(lambda corpus, r: r.update(gold=_other_task_candidate(corpus, r))),
    ),
    "gold-of-other-task": (
        "queries.jsonl",
        _rewrite(lambda corpus, r: r.update(task=_other_spec_task(corpus, r))),
    ),
    "unknown-task": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(task="zzz"))),
    "task-outside-spec": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(task="i2i"))),
    "candidate-task-outside-spec": ("candidates.jsonl", _rewrite(lambda corpus, r: r.update(task="i2i"))),
    "stale-modality-key": ("candidates.jsonl", _rewrite(lambda corpus, r: r.update(modality="image"))),
    "gold-names-nothing": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(gold=10**9))),
    "query-missing-key": ("queries.jsonl", _rewrite(lambda corpus, r: r.pop("tokens"))),
    "candidate-missing-key": ("candidates.jsonl", _rewrite(lambda corpus, r: r.pop("task"))),
    "candidate-id-list": ("candidates.jsonl", _rewrite(lambda corpus, r: r.update(id=[r["id"]]))),
    "query-id-string": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(id=str(r["id"])))),
    "query-id-float": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(id=r["id"] + 0.5))),
    "gold-float": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(gold=float(r["gold"])))),
    "gold-bool": ("queries.jsonl", _rewrite(lambda corpus, r: r.update(gold=False))),
    "concept-string": ("candidates.jsonl", _rewrite(lambda corpus, r: r.update(concept="1"))),
    "concept-null": ("candidates.jsonl", _rewrite(lambda corpus, r: r.update(concept=None))),
    "token-string": ("queries.jsonl", _rewrite(lambda corpus, r: r["tokens"].append("a"))),
    "token-float": ("candidates.jsonl", _rewrite(lambda corpus, r: r["tokens"].append(float(TEXT_BASE)))),
    "token-bool": ("candidates.jsonl", _rewrite(lambda corpus, r: r["tokens"].append(True))),
    "token-list": ("queries.jsonl", _rewrite(lambda corpus, r: r["tokens"].append([TEXT_BASE]))),
    "token-huge": ("candidates.jsonl", _rewrite(lambda corpus, r: r["tokens"].append(10**30))),
    "token-reserved": ("queries.jsonl", _rewrite(lambda corpus, r: r["tokens"].append(RET_TOKEN_ID))),
    "token-past-text-vocab": (
        "queries.jsonl",
        _rewrite(lambda corpus, r: r["tokens"].append(TEXT_BASE + corpus.spec.text_vocab_size)),
    ),
    "token-past-image-vocab": (
        "candidates.jsonl",
        _rewrite(lambda corpus, r: r["tokens"].append(IMAGE_BASE + corpus.spec.image_vocab_size)),
    ),
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

    @pytest.mark.parametrize("spec", [{"tasks": ["t2iKt"]}, {"text_vocab_size": 0}, {"distractors": -2}])
    def test_spec_the_generator_rejects_is_a_format_error(self, corpus, tmp_path, spec):
        corpus.save(tmp_path / "c")
        meta_path = tmp_path / "c" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["spec"].update(spec)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="meta.json: bad corpus spec") as err:
            Corpus.load(tmp_path / "c")
        assert err.value.offset == 0

    @pytest.mark.parametrize("meta", [b'{"seed": 0,', b'{"seed": 0}', b"[]"])
    def test_bad_meta_rejected(self, corpus, tmp_path, meta):
        corpus.save(tmp_path / "c")
        (tmp_path / "c" / "meta.json").write_bytes(meta)
        with pytest.raises(FormatError, match="meta.json"):
            Corpus.load(tmp_path / "c")

    @pytest.mark.parametrize(
        "change",
        [
            lambda ids: [str(i) for i in ids],
            lambda ids: ids + [10**9],
            lambda ids: ids[:-1] + [True],
        ],
        ids=["strings", "names-no-query", "true"],
    )
    def test_bad_train_ids_rejected(self, corpus, tmp_path, change):
        corpus.save(tmp_path / "c")
        meta_path = tmp_path / "c" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["train_ids"] = change(meta["train_ids"])
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="meta.json: train") as err:
            Corpus.load(tmp_path / "c")
        assert err.value.offset == 0
