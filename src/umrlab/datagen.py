"""Deterministic synthetic retrieval corpus.

Each concept has fixed base tokens per modality: position j of concept c is
the splitmix64 finalizer of a (c, j, modality) key, reduced into that
modality's vocabulary. ``generate_corpus`` hashes the whole text table and
the whole image table once, over numpy uint64 arrays whose wrapping
arithmetic is the hash's mod-2^64 arithmetic. Each enabled task type becomes
one pseudo-dataset holding, per concept, one query, one positive candidate
(an independent noisy rendering of the same concept) and a few distractor
candidates from other concepts. Every item draws its noise, and a
distractor its concept, from its own generator seeded by
``[seed, 1, task index, concept, role]``, so no item's draws depend on
another's. Text and image vocabularies are disjoint, which is what induces
the modality separation the adaptive loss exploits.

Generation costs one generator per item (12-14 us to seed) and, when
noise is on, one uniform draw per token plus one integer draw per resampled
token; hashing the tables is a few milliseconds. On 2 vCPUs the default
2,000-concept corpus takes about 1.6-2.0 s.

A saved corpus is three files. ``queries.jsonl`` holds one
``{"id", "task", "tokens", "gold"}`` object per query and
``candidates.jsonl`` one ``{"id", "task", "tokens", "concept"}`` object per
candidate, keys in that order. ``meta.json`` holds the seed, the spec and
the ids of the training queries; every other query is a test query. A
record stores only what it cannot derive: its dataset (``DATASETS``) and
its modality (``QUERY_MODALITY`` or ``CANDIDATE_MODALITY``) follow from its
task, and a query's instruction id from its task (``INSTRUCTION_IDS``).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import ConfigurationError, ContractError, FormatError
from .prompts import RESERVED_IDS
from .tasks import CANDIDATE_MODALITY, DATASETS, QUERY_MODALITY, TASKS

TEXT_BASE = 100
IMAGE_BASE = 5000

DEFAULT_TASKS = ("t2i", "t2t", "i2t", "i2i", "t2it", "it2i")

# splitmix64 constants: the finalizer's increment and two multipliers, and
# the multipliers that spread a concept and a position over the key
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)
_CONCEPT_MUL = np.uint64(0x2545F4914F6CDD1D)
_POSITION_MUL = np.uint64(0x9E3779B9)


@dataclass(frozen=True)
class CorpusSpec:
    n_concepts: int = 2000
    tasks: tuple[str, ...] = DEFAULT_TASKS
    text_vocab_size: int = 400
    image_vocab_size: int = 400
    n_t: int = 8
    n_i: int = 16
    noise: float = 0.1
    distractors: int = 2
    test_fraction: float = 0.2

    def __post_init__(self):
        for name in ("n_concepts", "text_vocab_size", "image_vocab_size", "n_t", "n_i", "distractors"):
            if type(getattr(self, name)) is not int:  # a bool is no extent either
                raise ContractError(f"{name} must be an integer, got {getattr(self, name)!r}")
        unknown = [t for t in self.tasks if t not in TASKS]
        if unknown:
            raise ConfigurationError(f"unknown task types {unknown}")
        # canonical task order so generation order never depends on input order
        object.__setattr__(
            self, "tasks", tuple(t for t in TASKS if t in set(self.tasks))
        )
        if not 0.0 <= self.noise < 1.0:
            raise ContractError(f"noise probability {self.noise} outside [0, 1)")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ContractError(f"test fraction {self.test_fraction} outside [0, 1)")
        if self.n_concepts < 1 or (self.distractors > 0 and self.n_concepts < 2):
            raise ContractError("need at least 2 concepts to draw distractors")
        if TEXT_BASE < RESERVED_IDS or IMAGE_BASE < RESERVED_IDS:
            raise ContractError("vocab bases collide with reserved ids")
        if self.text_vocab_size < 1 or self.image_vocab_size < 1:
            raise ContractError("text and image vocabularies need at least 1 token each")
        if min(self.n_t, self.n_i, self.distractors) < 0:
            raise ContractError("n_t, n_i and distractors must be >= 0")
        if TEXT_BASE + self.text_vocab_size > IMAGE_BASE:
            raise ContractError("text and image vocab ranges overlap")


def vocab_size_for(spec: CorpusSpec) -> int:
    """Smallest encoder vocabulary covering reserved ids and both ranges."""
    return IMAGE_BASE + spec.image_vocab_size


@dataclass(frozen=True)
class Sample:
    id: int
    task: str
    tokens: tuple[int, ...]
    gold: int

    @property
    def dataset(self) -> str:
        return DATASETS[self.task]

    @property
    def modality(self) -> str:
        return QUERY_MODALITY[self.task]


@dataclass(frozen=True)
class Candidate:
    id: int
    task: str
    tokens: tuple[int, ...]
    concept: int

    @property
    def dataset(self) -> str:
        return DATASETS[self.task]

    @property
    def modality(self) -> str:
        return CANDIDATE_MODALITY[self.task]


def _base_tokens(spec: CorpusSpec, concepts: Sequence[int], part: str) -> list[list[int]]:
    """Base tokens of each of ``concepts`` in ``part`` ("text" or "image"),
    one row per concept: the splitmix64 finalizer of
    ``concept * _CONCEPT_MUL ^ (j + 1) * _POSITION_MUL ^ part code``,
    reduced into the part's vocabulary."""
    if part == "text":
        base, size, length, code = TEXT_BASE, spec.text_vocab_size, spec.n_t, 0
    else:
        base, size, length, code = IMAGE_BASE, spec.image_vocab_size, spec.n_i, 1
    c = np.asarray(concepts, dtype=np.uint64)[:, None]
    j = np.arange(1, length + 1, dtype=np.uint64)
    x = ((c * _CONCEPT_MUL) ^ (j * _POSITION_MUL) ^ np.uint64(code)) + _SM_GAMMA
    x = (x ^ (x >> 30)) * _SM_MUL1
    x = (x ^ (x >> 27)) * _SM_MUL2
    x ^= x >> 31
    return (x % np.uint64(size) + np.uint64(base)).tolist()


def _renderings(
    spec: CorpusSpec, concepts: Sequence[int]
) -> dict[str, tuple[list[list[int]], list[tuple[int, int]]]]:
    """Per modality: the noiseless rendering of each of ``concepts``, image
    tokens first, and each position's (first id, size) vocabulary. Hashes
    the text and the image table once."""
    text = _base_tokens(spec, concepts, "text")
    image = _base_tokens(spec, concepts, "image")
    text_vocab = [(TEXT_BASE, spec.text_vocab_size)] * spec.n_t
    image_vocab = [(IMAGE_BASE, spec.image_vocab_size)] * spec.n_i
    return {
        "text": (text, text_vocab),
        "image": (image, image_vocab),
        "image_text": ([i + t for i, t in zip(image, text)], image_vocab + text_vocab),
    }


def _resample(
    row: list[int], vocab: list[tuple[int, int]], p: float, rng: np.random.Generator
) -> tuple[int, ...]:
    """``row`` with each position redrawn, with probability ``p``, uniformly
    from its vocabulary; draws nothing unless p > 0."""
    if not p > 0:
        return tuple(row)
    random, out = rng.random, list(row)
    for j, (start, size) in enumerate(vocab):
        if random() < p:
            out[j] = start + int(rng.integers(size))
    return tuple(out)


@dataclass
class Corpus:
    spec: CorpusSpec
    seed: int
    train: list[Sample]
    test: list[Sample]
    pools: dict[str, list[Candidate]] = field(repr=False)

    def all_queries(self) -> list[Sample]:
        return sorted(self.train + self.test, key=lambda s: s.id)

    def all_candidates(self) -> list[Candidate]:
        out = [c for pool in self.pools.values() for c in pool]
        out.sort(key=lambda c: c.id)
        return out

    def candidate_by_id(self, cid: int) -> Candidate:
        if not hasattr(self, "_by_id"):
            self._by_id = {c.id: c for c in self.all_candidates()}
        return self._by_id[cid]

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # one JSON object per record, keys in dataclass field order
        with open(directory / "queries.jsonl", "w", encoding="utf-8") as f:
            for s in self.all_queries():
                f.write(json.dumps(vars(s)) + "\n")
        with open(directory / "candidates.jsonl", "w", encoding="utf-8") as f:
            for c in self.all_candidates():
                f.write(json.dumps(vars(c)) + "\n")
        meta = {
            "seed": self.seed,
            "spec": asdict(self.spec),
            "train_ids": [s.id for s in self.train],
        }
        with open(directory / "meta.json", "w", encoding="utf-8") as f:
            json.dump(meta, f)

    @classmethod
    def load(cls, directory: str | Path) -> "Corpus":
        """Read a saved corpus. Malformed JSON, missing or extra keys, a spec
        that CorpusSpec rejects, a seed that is not a non-negative integer,
        train ids that are not integers naming queries, an id, gold or
        concept that is not an integer, a token outside the spec's
        vocabularies, a task the spec does not enable, duplicate ids and
        gold ids outside the query's own task raise FormatError with the
        file name and the byte offset of the offending line (0 in
        meta.json)."""
        directory = Path(directory)
        meta_path = directory / "meta.json"
        try:
            meta = json.loads(meta_path.read_bytes())
            spec_dict = dict(meta["spec"])
            spec_dict["tasks"] = tuple(spec_dict["tasks"])
            spec = CorpusSpec(**spec_dict)
            seed, train_ids = meta["seed"], meta["train_ids"]
        except json.JSONDecodeError as err:
            raise FormatError(f"{meta_path.name}: {err.msg}", err.pos) from err
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"{meta_path.name}: bad metadata ({err!r})", 0) from err
        except (ConfigurationError, ContractError) as err:
            raise FormatError(f"{meta_path.name}: bad corpus spec ({err})", 0) from err
        if type(seed) is not int or seed < 0:
            raise FormatError(f"{meta_path.name}: seed must be a non-negative integer, got {seed!r}", 0)
        if type(train_ids) is not list or any(type(i) is not int for i in train_ids):
            raise FormatError(f"{meta_path.name}: train_ids must be a list of integers", 0)

        pools: dict[str, list[Candidate]] = {}
        task_of: dict[int, str] = {}
        for offset, c in _read_records(directory / "candidates.jsonl", Candidate, spec):
            if c.id in task_of:
                raise FormatError(f"candidates.jsonl: duplicate candidate id {c.id}", offset)
            task_of[c.id] = c.task
            pools.setdefault(c.dataset, []).append(c)
        queries: list[Sample] = []
        seen: set[int] = set()
        for offset, q in _read_records(directory / "queries.jsonl", Sample, spec):
            if q.id in seen:
                raise FormatError(f"queries.jsonl: duplicate query id {q.id}", offset)
            if task_of.get(q.gold) != q.task:
                raise FormatError(
                    f"queries.jsonl: query {q.id} names gold {q.gold}, "
                    f"which is no candidate of task {q.task!r}",
                    offset,
                )
            seen.add(q.id)
            queries.append(q)
        train_ids = set(train_ids)
        if not train_ids <= seen:
            raise FormatError(f"{meta_path.name}: train id {min(train_ids - seen)} names no query", 0)
        train = [q for q in queries if q.id in train_ids]
        test = [q for q in queries if q.id not in train_ids]
        return cls(spec=spec, seed=seed, train=train, test=test, pools=pools)


def _refuse_float(text: str):
    raise ValueError(f"{text} is not an integer")


# every number of a corpus record is an integer
_RECORD_DECODER = json.JSONDecoder(parse_float=_refuse_float)


def _read_records(path: Path, cls, spec: CorpusSpec):
    """Yield (byte offset, cls instance) for each line of a JSONL file whose
    objects carry exactly the fields of ``cls``, integers (not bools) for
    its id and gold or concept, one of the spec's tasks and tokens from its
    text or image vocabulary."""
    numbers = [f.name for f in fields(cls) if f.name not in ("task", "tokens")]
    vocab = frozenset(range(TEXT_BASE, TEXT_BASE + spec.text_vocab_size))
    vocab |= frozenset(range(IMAGE_BASE, IMAGE_BASE + spec.image_vocab_size))
    offset = 0
    with open(path, "rb") as f:
        for line in f:
            try:
                raw = _RECORD_DECODER.decode(line.decode("utf-8"))
                raw["tokens"] = tuple(raw["tokens"])
                record = cls(**raw)
                known_tokens = vocab.issuperset(record.tokens)  # TypeError on a list token
            except (ValueError, KeyError, TypeError) as err:
                raise FormatError(f"{path.name}: bad record ({err!r})", offset) from err
            for name in numbers:
                value = getattr(record, name)
                if type(value) is not int:
                    raise FormatError(
                        f"{path.name}: record {record.id!r} has {name} {value!r}, which is not an integer",
                        offset,
                    )
            if record.task not in spec.tasks:
                raise FormatError(
                    f"{path.name}: record {record.id} has task {record.task!r}, "
                    f"which the corpus spec does not enable",
                    offset,
                )
            if not known_tokens:
                token = next(t for t in record.tokens if t not in vocab)
                raise FormatError(
                    f"{path.name}: record {record.id} has token {token!r}, "
                    "outside the corpus spec's vocabularies",
                    offset,
                )
            yield offset, record
            offset += len(line)


def _item_rngs(seed: int):
    """The function (task index, concept, role) -> that item's generator,
    in the state ``default_rng([seed, 1, task index, concept, role])`` gives.
    It skips default_rng's coercion of the list: ``words`` holds the seed's
    little-endian 32-bit words, then 1, the task index, concept and role,
    the words SeedSequence derives from that list."""
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    words = np.array([*seed_words, 1, 0, 0, 0], dtype=np.uint32)

    def item_rng(ti: int, concept: int, role: int) -> np.random.Generator:
        # SeedSequence keeps ``words`` but mixes it into the generator's
        # state at once, so the next item may overwrite it
        words[-3:] = ti, concept, role
        return Generator(PCG64(SeedSequence(words)))

    return item_rng


def generate_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    """Build the corpus; fully deterministic in (spec, seed)."""
    if not spec.tasks:
        raise ConfigurationError("corpus spec enables no tasks")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    n, p = spec.n_concepts, spec.noise
    split_rng = np.random.default_rng([seed, 0])
    n_test = int(round(spec.test_fraction * n))
    test_concepts = set(int(c) for c in split_rng.permutation(n)[:n_test])
    renderings = _renderings(spec, range(n))
    item_rng = _item_rngs(seed)

    train: list[Sample] = []
    test: list[Sample] = []
    pools: dict[str, list[Candidate]] = {}
    qid = 0
    cid = 0
    for ti, task in enumerate(spec.tasks):
        pool = pools.setdefault(DATASETS[task], [])
        q_rows, q_vocab = renderings[QUERY_MODALITY[task]]
        c_rows, c_vocab = renderings[CANDIDATE_MODALITY[task]]
        for concept in range(n):
            q_tokens = _resample(q_rows[concept], q_vocab, p, item_rng(ti, concept, 0))
            c_tokens = _resample(c_rows[concept], c_vocab, p, item_rng(ti, concept, 1))
            gold = cid
            pool.append(Candidate(cid, task, c_tokens, concept))
            cid += 1
            for r in range(spec.distractors):
                d_rng = item_rng(ti, concept, 2 + r)
                other = (concept + 1 + int(d_rng.integers(n - 1))) % n
                pool.append(Candidate(cid, task, _resample(c_rows[other], c_vocab, p, d_rng), other))
                cid += 1
            (test if concept in test_concepts else train).append(Sample(qid, task, q_tokens, gold))
            qid += 1
    return Corpus(spec=spec, seed=seed, train=train, test=test, pools=pools)
