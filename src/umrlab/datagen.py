"""Deterministic synthetic retrieval corpus.

Concepts are rendered into modality-specific token sequences through a
mixing hash, with per-position resampling noise. Each enabled task type
becomes one pseudo-dataset holding, per concept, one query, one positive
candidate (an independent noisy rendering of the same concept) and a few
distractor candidates from other concepts. Text and image vocabularies are
disjoint, which is what induces the modality separation the adaptive loss
exploits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractError, FormatError
from .prompts import INSTRUCTION_IDS, RESERVED_IDS
from .tasks import CANDIDATE_MODALITY, QUERY_MODALITY, TASKS

TEXT_BASE = 100
IMAGE_BASE = 5000

DEFAULT_TASKS = ("t2i", "t2t", "i2t", "i2i", "t2it", "it2i")

_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer; the documented concept-to-token mixing hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


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
        if TEXT_BASE + self.text_vocab_size > IMAGE_BASE:
            raise ContractError("text and image vocab ranges overlap")

    @property
    def text_range(self) -> range:
        return range(TEXT_BASE, TEXT_BASE + self.text_vocab_size)

    @property
    def image_range(self) -> range:
        return range(IMAGE_BASE, IMAGE_BASE + self.image_vocab_size)


def vocab_size_for(spec: CorpusSpec) -> int:
    """Smallest encoder vocabulary covering reserved ids and both ranges."""
    return IMAGE_BASE + spec.image_vocab_size


@dataclass(frozen=True)
class Sample:
    id: int
    task: str
    dataset: str
    modality: str
    tokens: tuple[int, ...]
    gold: int
    instr: int


@dataclass(frozen=True)
class Candidate:
    id: int
    dataset: str
    modality: str
    tokens: tuple[int, ...]
    concept: int


def _base_tokens(spec: CorpusSpec, concept: int, part: str) -> list[int]:
    if part == "text":
        base, size, length, code = TEXT_BASE, spec.text_vocab_size, spec.n_t, 0
    else:
        base, size, length, code = IMAGE_BASE, spec.image_vocab_size, spec.n_i, 1
    return [
        base + _mix64(concept * 0x2545F4914F6CDD1D ^ (j + 1) * 0x9E3779B9 ^ code) % size
        for j in range(length)
    ]


def render(
    spec: CorpusSpec, concept: int, modality: str, p: float, rng: np.random.Generator
) -> tuple[int, ...]:
    """Noisy rendering of a concept; image tokens precede text tokens."""
    if modality == "image_text":
        parts = [("image", spec.image_range), ("text", spec.text_range)]
    elif modality in ("text", "image"):
        parts = [(modality, spec.text_range if modality == "text" else spec.image_range)]
    else:
        raise ContractError(f"unknown modality {modality!r}")
    out: list[int] = []
    for part, vocab in parts:
        for token in _base_tokens(spec, concept, part):
            if p > 0 and rng.random() < p:
                token = int(vocab.start + rng.integers(len(vocab)))
            out.append(token)
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
            "test_ids": [s.id for s in self.test],
        }
        with open(directory / "meta.json", "w", encoding="utf-8") as f:
            json.dump(meta, f)

    @classmethod
    def load(cls, directory: str | Path) -> "Corpus":
        """Read a saved corpus. Malformed JSON, missing keys, duplicate ids
        and gold ids outside the query's own dataset raise FormatError with
        the file name and the byte offset of the offending line."""
        directory = Path(directory)
        meta_path = directory / "meta.json"
        try:
            meta = json.loads(meta_path.read_bytes())
            spec_dict = dict(meta["spec"])
            spec_dict["tasks"] = tuple(spec_dict["tasks"])
            spec = CorpusSpec(**spec_dict)
            seed, train_ids = meta["seed"], set(meta["train_ids"])
        except json.JSONDecodeError as err:
            raise FormatError(f"{meta_path.name}: {err.msg}", err.pos) from err
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"{meta_path.name}: bad metadata ({err!r})", 0) from err

        pools: dict[str, list[Candidate]] = {}
        dataset_of: dict[int, str] = {}
        for offset, c in _read_records(directory / "candidates.jsonl", Candidate):
            if c.id in dataset_of:
                raise FormatError(f"candidates.jsonl: duplicate candidate id {c.id}", offset)
            dataset_of[c.id] = c.dataset
            pools.setdefault(c.dataset, []).append(c)
        queries: list[Sample] = []
        seen: set[int] = set()
        for offset, q in _read_records(directory / "queries.jsonl", Sample):
            if q.id in seen:
                raise FormatError(f"queries.jsonl: duplicate query id {q.id}", offset)
            if dataset_of.get(q.gold) != q.dataset:
                raise FormatError(
                    f"queries.jsonl: query {q.id} names gold {q.gold}, "
                    f"which is no candidate of dataset {q.dataset!r}",
                    offset,
                )
            seen.add(q.id)
            queries.append(q)
        train = [q for q in queries if q.id in train_ids]
        test = [q for q in queries if q.id not in train_ids]
        return cls(spec=spec, seed=seed, train=train, test=test, pools=pools)


def _read_records(path: Path, cls):
    """Yield (byte offset, cls instance) for each line of a JSONL file whose
    objects carry exactly the fields of ``cls``."""
    offset = 0
    with open(path, "rb") as f:
        for line in f:
            try:
                fields = json.loads(line.decode("utf-8"))
                fields["tokens"] = tuple(fields["tokens"])
                record = cls(**fields)
            except (ValueError, KeyError, TypeError) as err:
                raise FormatError(f"{path.name}: bad record ({err!r})", offset) from err
            yield offset, record
            offset += len(line)


def generate_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    """Build the corpus; fully deterministic in (spec, seed)."""
    if not spec.tasks:
        raise ConfigurationError("corpus spec enables no tasks")
    n = spec.n_concepts
    split_rng = np.random.default_rng([seed, 0])
    n_test = int(round(spec.test_fraction * n))
    test_concepts = set(int(c) for c in split_rng.permutation(n)[:n_test])

    train: list[Sample] = []
    test: list[Sample] = []
    pools: dict[str, list[Candidate]] = {}
    qid = 0
    cid = 0
    for ti, task in enumerate(spec.tasks):
        dataset = f"ds-{task}"
        pool = pools.setdefault(dataset, [])
        q_mod, c_mod = QUERY_MODALITY[task], CANDIDATE_MODALITY[task]
        for concept in range(n):
            q_rng = np.random.default_rng([seed, 1, ti, concept, 0])
            c_rng = np.random.default_rng([seed, 1, ti, concept, 1])
            q_tokens = render(spec, concept, q_mod, spec.noise, q_rng)
            positive = Candidate(
                id=cid,
                dataset=dataset,
                modality=c_mod,
                tokens=render(spec, concept, c_mod, spec.noise, c_rng),
                concept=concept,
            )
            cid += 1
            pool.append(positive)
            for r in range(spec.distractors):
                d_rng = np.random.default_rng([seed, 1, ti, concept, 2 + r])
                other = (concept + 1 + int(d_rng.integers(n - 1))) % n
                pool.append(
                    Candidate(
                        id=cid,
                        dataset=dataset,
                        modality=c_mod,
                        tokens=render(spec, other, c_mod, spec.noise, d_rng),
                        concept=other,
                    )
                )
                cid += 1
            sample = Sample(
                id=qid,
                task=task,
                dataset=dataset,
                modality=q_mod,
                tokens=q_tokens,
                gold=positive.id,
                instr=INSTRUCTION_IDS[task],
            )
            qid += 1
            (test if concept in test_concepts else train).append(sample)
    return Corpus(spec=spec, seed=seed, train=train, test=test, pools=pools)

