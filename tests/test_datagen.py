import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umrlab.datagen import (
    DEFAULT_TASKS,
    IMAGE_BASE,
    TEXT_BASE,
    Corpus,
    CorpusSpec,
    _renderings,
    generate_corpus,
    vocab_size_for,
)
from umrlab.errors import ConfigurationError, ContractError, FormatError
from umrlab.prompts import RESERVED_IDS
from umrlab.tasks import CANDIDATE_MODALITY, DATASETS, QUERY_MODALITY, TASKS

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
MASK = (1 << 64) - 1


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SMALL_SPEC, seed=7)


def reference_mix(x):
    """splitmix64's output for state x, on Python integers."""
    x = x + 0x9E3779B97F4A7C15 & MASK
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & MASK
    x = (x ^ x >> 27) * 0x94D049BB133111EB & MASK
    return x ^ x >> 31


def reference_base_tokens(spec, concept, part):
    """The splitmix64 rendering on Python integers, one token at a time."""
    if part == "text":
        base, size, length, code = TEXT_BASE, spec.text_vocab_size, spec.n_t, 0
    else:
        base, size, length, code = IMAGE_BASE, spec.image_vocab_size, spec.n_i, 1
    return [
        base + reference_mix(concept * 0x2545F4914F6CDD1D ^ (j + 1) * 0x9E3779B9 ^ code) % size
        for j in range(length)
    ]


def reference_renderings(spec, concept):
    """The noiseless rendering of ``concept`` in each modality."""
    out = {part: reference_base_tokens(spec, concept, part) for part in ("text", "image")}
    out["image_text"] = out["image"] + out["text"]
    return out


def side_vocab(spec, modality):
    """The vocabulary of each position of a ``modality`` rendering."""
    text = range(TEXT_BASE, TEXT_BASE + spec.text_vocab_size)
    image = range(IMAGE_BASE, IMAGE_BASE + spec.image_vocab_size)
    return {"text": [text] * spec.n_t, "image": [image] * spec.n_i,
            "image_text": [image] * spec.n_i + [text] * spec.n_t}[modality]


def reference_draw(seed, task, concept, role, position, slot):
    """The draw keyed on these fields, folded one at a time on Python integers."""
    words = [seed >> s & MASK for s in range(0, max(seed.bit_length(), 1), 64)]
    h = 0
    for field in [*words, TASKS.index(task), concept, role, position, slot]:
        h = reference_mix(h ^ field)
    return h


def reference_item(spec, seed, task, concept, role):
    """(tokens, rendered concept) of one item: role 0 is concept's query,
    1 its positive and 2 + r its r-th distractor."""
    n = spec.n_concepts
    rendered = concept if role < 2 else (concept + 1 + reference_draw(seed, task, concept, role, 0, 2) % (n - 1)) % n
    modality = QUERY_MODALITY[task] if role == 0 else CANDIDATE_MODALITY[task]
    tokens = reference_renderings(spec, rendered)[modality]
    for j, vocab in enumerate(side_vocab(spec, modality)):
        if (reference_draw(seed, task, concept, role, j, 0) >> 11) / 2**53 < spec.noise:
            tokens[j] = vocab[reference_draw(seed, task, concept, role, j, 1) % len(vocab)]
    return tuple(tokens), rendered


def canonical_records(corpus) -> bytes:
    """Each record's id, task, tokens and gold or concept, in id order, a
    query also with whether it is a test query; one JSON list a line."""
    test_ids = {s.id for s in corpus.test}
    lines = [[s.id, s.task, list(s.tokens), s.gold, s.id in test_ids] for s in corpus.all_queries()]
    lines += [[c.id, c.task, list(c.tokens), c.concept] for c in corpus.all_candidates()]
    return "".join(json.dumps(line) + "\n" for line in lines).encode()


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class TestRender:
    @pytest.mark.parametrize("concept", [0, 1, 7, 11, 2**31 + 3, 2**40 + 7, 2**63 + 1])
    def test_noiseless_render_equals_the_integer_reference(self, concept):
        renderings = _renderings(SMALL_SPEC, [concept])
        for modality, tokens in reference_renderings(SMALL_SPEC, concept).items():
            rows, _ = renderings[modality]
            assert rows[0].tolist() == tokens

    def test_noiseless_render_is_pure(self):
        # at noise 0 no draw reaches a token, whatever the seed
        spec = replace(SMALL_SPEC, noise=0.0)
        for seed in (0, 99, 2**70 + 3):
            for c in generate_corpus(spec, seed).all_candidates():
                assert c.tokens == tuple(reference_renderings(spec, c.concept)[c.modality])

    def test_distinct_concepts_render_distinct(self):
        renderings = _renderings(SMALL_SPEC, range(SMALL_SPEC.n_concepts))
        for rows, _ in renderings.values():
            assert len({tuple(row) for row in rows.tolist()}) == SMALL_SPEC.n_concepts

    def test_image_text_is_image_then_text(self):
        rows, vocab = _renderings(SMALL_SPEC, [5])["image_text"]
        toks = rows[0].tolist()
        assert len(toks) == vocab.shape[1] == SMALL_SPEC.n_i + SMALL_SPEC.n_t
        assert all(t in IMAGE_IDS for t in toks[: SMALL_SPEC.n_i])
        assert all(t in TEXT_IDS for t in toks[SMALL_SPEC.n_i :])

    def test_noise_resamples_within_range(self):
        spec = replace(SMALL_SPEC, noise=0.9)
        changed = 0
        for c in generate_corpus(spec, seed=2).all_candidates():
            clean = reference_renderings(spec, c.concept)[c.modality]
            changed += sum(a != b for a, b in zip(c.tokens, clean))
            assert all(t in vocab for t, vocab in zip(c.tokens, side_vocab(spec, c.modality)))
        assert changed > 0

    def test_noiseless_corpus_items_are_renderings_of_their_concept(self):
        spec = CorpusSpec(n_concepts=7, tasks=("t2i", "it2t"), noise=0.0, distractors=2)
        corpus = generate_corpus(spec, seed=5)
        for c in corpus.all_candidates():
            assert c.tokens == tuple(reference_renderings(spec, c.concept)[c.modality])
        for q in corpus.all_queries():
            concept = corpus.candidate_by_id(q.gold).concept
            assert q.tokens == tuple(reference_renderings(spec, concept)[q.modality])


# SHA-256 of each corpus's canonical records and of its meta.json: a change
# to the hash, the key, the split or the saved layout that moves one byte
# fails here
PINNED_CORPORA = {
    "default-tasks": (
        CorpusSpec(n_concepts=12, n_t=4, n_i=6, text_vocab_size=30, image_vocab_size=30),
        5,
        {
            "records": "cdb5ad2d33e5802ced27ddb4f63f271292eba4d42c88e02ca94a8398b8bfe48a",
            "meta.json": "72f7e3a7723c91bd46ce482a63539ab29b1d782a305c5406d4565452e29639b3",
        },
    ),
    "noise-0": (
        CorpusSpec(n_concepts=10, noise=0.0, n_t=3, n_i=5),
        2,
        {
            "records": "ce7e853bc12cad57eb912e157ed39f88f143a44fbe409ab67b765b65bf9cbf2f",
            "meta.json": "03a25f099c217ddfd2f5955654a058230d78271782786eb9aae26d023c4a8a96",
        },
    ),
    "subset-4-distractors": (
        CorpusSpec(n_concepts=9, tasks=("t2i", "t2t", "it2i"), noise=0.3, distractors=4),
        2**32 + 5,
        {
            "records": "e3e4e95cafa3a94abc2eeed206d05d200b44cdfca62d480119299c15abd91cc6",
            "meta.json": "e70716541b6930e55be29d2c2639cd4ac8b032bf6167c194e379177281ccacc7",
        },
    ),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", list(PINNED_CORPORA))
    def test_saved_files_match_pinned_digests(self, tmp_path, name):
        spec, seed, digests = PINNED_CORPORA[name]
        generate_corpus(spec, seed).save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]
        got = {
            "records": sha256(canonical_records(Corpus.load(tmp_path))),
            "meta.json": sha256((tmp_path / "meta.json").read_bytes()),
        }
        assert got == digests

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3])
    def test_item_draws_equal_the_integer_reference(self, seed):
        spec = replace(SMALL_SPEC, noise=0.3)
        corpus = generate_corpus(spec, seed)
        n, roles = spec.n_concepts, 2 + spec.distractors
        for q in corpus.all_queries():
            gold = corpus.candidate_by_id(q.gold)
            assert (q.tokens, gold.concept) == reference_item(spec, seed, q.task, gold.concept, 0)
        for c in corpus.all_candidates():
            concept, role = divmod(c.id % (n * (roles - 1)), roles - 1)
            assert (c.tokens, c.concept) == reference_item(spec, seed, c.task, concept, role + 1)


class TestGenerateCorpus:
    def test_deterministic_in_seed(self, tmp_path):
        a = generate_corpus(SMALL_SPEC, seed=3)
        b = generate_corpus(SMALL_SPEC, seed=3)
        assert a == b
        a.save(tmp_path / "a")
        b.save(tmp_path / "b")
        assert (tmp_path / "a" / "meta.json").read_bytes() == (tmp_path / "b" / "meta.json").read_bytes()

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

    def test_seeds_apart_only_above_bit_64_differ(self):
        tokens = [
            [s.tokens for s in generate_corpus(SMALL_SPEC, seed).all_queries()]
            for seed in (5, 2**64 + 5, 2**70 + 5, 2**128 + 5)
        ]
        assert all(a != b for i, a in enumerate(tokens) for b in tokens[i + 1 :])

    @pytest.mark.parametrize("task", ["t2i", "it2i"])
    def test_an_item_does_not_depend_on_the_other_tasks(self, task):
        def items(corpus):
            test_ids = {s.id for s in corpus.test}
            queries = [
                (q.tokens, corpus.candidate_by_id(q.gold).concept, q.id in test_ids)
                for q in corpus.all_queries() if q.task == task
            ]
            return queries, [(c.tokens, c.concept) for c in corpus.pools[DATASETS[task]]]

        alone = generate_corpus(replace(SMALL_SPEC, tasks=(task,)), seed=9)
        every = generate_corpus(replace(SMALL_SPEC, tasks=DEFAULT_TASKS), seed=9)
        assert items(alone) == items(every)
        if task == TASKS[0]:  # the first task's ids are the same too
            assert alone.pools[DATASETS[task]] == every.pools[DATASETS[task]]

    def test_resampled_fraction_matches_noise(self):
        # a position is changed when redrawn (noise) to another token
        # (1 - 1/size); the count is binomial, so 4 sigma
        spec = CorpusSpec()
        corpus = generate_corpus(spec, seed=11)
        renderings = _renderings(spec, range(spec.n_concepts))
        items = {}
        for q in corpus.all_queries():
            items.setdefault(q.modality, []).append((q.tokens, corpus.candidate_by_id(q.gold).concept))
        for c in corpus.all_candidates():
            items.setdefault(c.modality, []).append((c.tokens, c.concept))
        assert set(items) == {"text", "image", "image_text"}
        for modality, pairs in items.items():
            rows, (_, sizes) = renderings[modality]
            tokens = np.array([t for t, _ in pairs], dtype=np.uint64)
            clean = rows[[concept for _, concept in pairs]]
            p = spec.noise * (1 - 1 / sizes.astype(float))
            expected, sigma = len(pairs) * p.sum(), np.sqrt(len(pairs) * (p * (1 - p)).sum())
            assert abs(np.count_nonzero(tokens != clean) - expected) < 4 * sigma, modality

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

    def test_a_token_value_is_one_shared_int(self, corpus):
        # a corpus holds one int object per vocabulary id, not one per token
        tokens = [t for item in corpus.all_queries() + corpus.all_candidates() for t in item.tokens]
        assert len({id(t) for t in tokens}) == len(set(tokens))

    def test_vocab_size_covers_everything(self, corpus):
        v = vocab_size_for(SMALL_SPEC)
        for c in corpus.all_candidates():
            assert max(c.tokens) < v


SPECS = st.builds(
    CorpusSpec,
    n_concepts=st.integers(2, 12),
    tasks=st.lists(st.sampled_from(TASKS), min_size=1, max_size=3, unique=True).map(tuple),
    text_vocab_size=st.integers(1, 40),
    image_vocab_size=st.integers(1, 40),
    n_t=st.integers(0, 5),
    n_i=st.integers(0, 5),
    noise=st.floats(0.0, 0.9),
    distractors=st.integers(0, 4),
    test_fraction=st.floats(0.0, 0.5),
)
SEEDS = st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**72))
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)


class TestProperties:
    @PROPERTY
    @given(spec=SPECS, seed=SEEDS)
    def test_every_token_lies_in_its_own_sides_vocabulary(self, spec, seed):
        corpus = generate_corpus(spec, seed)
        items = [(q.tokens, QUERY_MODALITY[q.task]) for q in corpus.all_queries()]
        items += [(c.tokens, CANDIDATE_MODALITY[c.task]) for c in corpus.all_candidates()]
        for tokens, modality in items:
            vocab = side_vocab(spec, modality)
            assert len(tokens) == len(vocab)
            assert all(type(t) is int and t in v for t, v in zip(tokens, vocab))

    @PROPERTY
    @given(spec=SPECS, seed=SEEDS)
    def test_concepts_lie_in_range(self, spec, seed):
        for c in generate_corpus(spec, seed).all_candidates():
            assert type(c.concept) is int and 0 <= c.concept < spec.n_concepts

    @PROPERTY
    @given(spec=SPECS, seed=SEEDS)
    def test_no_distractor_carries_its_querys_concept(self, spec, seed):
        corpus = generate_corpus(spec, seed)
        for q in corpus.all_queries():
            gold = corpus.candidate_by_id(q.gold)
            distractors = [corpus.candidate_by_id(q.gold + 1 + r) for r in range(spec.distractors)]
            assert gold.task == q.task and all(d.task == q.task for d in distractors)
            assert all(d.concept != gold.concept for d in distractors)

    @PROPERTY
    @given(spec=SPECS, seed=SEEDS)
    def test_deterministic_in_spec_and_seed(self, spec, seed):
        assert generate_corpus(spec, seed) == generate_corpus(replace(spec), seed)


class TestPools:
    def test_gold_present_in_both_scopes(self, corpus):
        sample = corpus.test[0]
        assert sample.gold in {c.id for c in corpus.pools[sample.dataset]}
        assert sample.gold in {c.id for c in corpus.all_candidates()}


class TestRoundTrip:
    def test_save_load_preserves_everything(self, corpus, tmp_path):
        corpus.save(tmp_path / "c")
        assert [p.name for p in (tmp_path / "c").iterdir()] == ["meta.json"]
        assert json.loads((tmp_path / "c" / "meta.json").read_text()).keys() == {"seed", "spec"}
        assert Corpus.load(tmp_path / "c") == corpus

    @pytest.mark.parametrize("name", list(PINNED_CORPORA))
    def test_each_pinned_corpus_round_trips(self, tmp_path, name):
        spec, seed, _ = PINNED_CORPORA[name]
        generated = generate_corpus(spec, seed)
        generated.save(tmp_path)
        assert Corpus.load(tmp_path) == generated


def rewrite_meta(directory, change):
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text())
    change(meta)
    meta_path.write_text(json.dumps(meta))


class TestLoadValidation:
    @pytest.mark.parametrize(
        "spec", [{"tasks": ["t2iKt"]}, {"text_vocab_size": 0}, {"distractors": -2}, {"tasks": []}]
    )
    def test_spec_the_generator_rejects_is_a_format_error(self, corpus, tmp_path, spec):
        corpus.save(tmp_path / "c")
        rewrite_meta(tmp_path / "c", lambda meta: meta["spec"].update(spec))
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
        # a saved corpus holds no train ids: any is refused
        corpus.save(tmp_path / "c")
        rewrite_meta(tmp_path / "c", lambda meta: meta.update(train_ids=change([s.id for s in corpus.train])))
        with pytest.raises(FormatError, match=r"meta.json: unexpected keys \['train_ids'\]") as err:
            Corpus.load(tmp_path / "c")
        assert err.value.offset == 0

    @pytest.mark.parametrize("key", ["train_ids", "version"])
    def test_old_layout_or_unknown_key_rejected(self, corpus, tmp_path, key):
        directory = tmp_path / "c"
        corpus.save(directory)
        # the three-file layout: records beside a meta.json with train ids
        (directory / "queries.jsonl").write_text(json.dumps({"id": 0, "task": "t2t", "tokens": [], "gold": 0}) + "\n")
        (directory / "candidates.jsonl").write_text("")
        rewrite_meta(directory, lambda meta: meta.update({key: [s.id for s in corpus.train]}))
        with pytest.raises(FormatError, match="old three-file layout") as err:
            Corpus.load(directory)
        assert str(err.value).startswith(f"meta.json: unexpected keys ['{key}']")
        assert err.value.offset == 0
