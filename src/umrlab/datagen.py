"""Deterministic synthetic retrieval corpus.

A corpus is a pure function of its spec and seed. Each enabled task type
becomes one pseudo-dataset holding, per concept, one query, one positive
candidate (an independent noisy rendering of the same concept) and a few
distractor candidates from other concepts. Text and image vocabularies are
disjoint, which is what induces the modality separation the adaptive loss
exploits.

Every number is drawn from the splitmix64 output function ``_mix`` (add
the golden gamma, then finalize) over numpy uint64 arrays, whose wrapping
arithmetic is the hash's mod-2^64 arithmetic. The draws are counter-based,
as in Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"
(SC 2011): a draw is a hash of where it is used, not a generator's next
state.

- Base tokens. Position j of concept c in part m (text 0, image 1) is
  ``_mix(c * _CONCEPT_MUL ^ (j + 1) * _POSITION_MUL ^ m)`` reduced into the
  part's vocabulary. An image+text rendering is the image tokens, then the
  text tokens. Base tokens do not depend on the seed.
- Draws. A draw is keyed on (seed, task code, concept, role, position,
  slot): starting from h = 0, each field is folded in, in that order, as
  ``h = _mix(h ^ field)``. The seed is one field per little-endian 64-bit
  word, so seeds past 2^64 stay distinct. The task code is the task's
  position in ``TASKS``. The concept is the query's. Role 0 is the query,
  1 the positive and 2 + r the r-th distractor. The position is within the
  item's rendering.
- Noise. Position j of an item is redrawn when slot 0's top 53 bits, as a
  uniform in [0, 1), are below ``noise``; the new token is slot 1 modulo
  the position's vocabulary size, offset to its first id.
- Distractors. The r-th distractor of concept c renders concept
  ``(c + 1 + h % (n - 1)) % n``, for h the draw of its role at position 0,
  slot 2, so it never renders c.

A key holds a task's code, not its index among the enabled tasks, so an
item does not change when another task is enabled or disabled; only the
ids, numbered over the enabled tasks in ``TASKS`` order, do. The test split
takes the first ``round(test_fraction * n)`` concepts of
``default_rng([seed, 0]).permutation(n)``; every query of a test concept is
a test query.

Each draw is vectorized over all concepts of a task, so generation costs a
few dozen numpy passes per task plus one Python object per record. On
2 vCPUs a 100-concept corpus takes about 7 ms and the default 2,000-concept
corpus about 0.15 s.

A saved corpus is one file, ``meta.json``: ``{"seed", "spec"}``. Loading
validates it and generates the corpus again. A record holds its id, task,
tokens and gold (a query) or concept (a candidate); its dataset
(``DATASETS``) and its modality (``QUERY_MODALITY`` or
``CANDIDATE_MODALITY``) follow from its task, and a query's instruction id
from its task (``INSTRUCTION_IDS``).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

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
_WORD = (1 << 64) - 1


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
        if not self.tasks:
            raise ConfigurationError("corpus spec enables no tasks")
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


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output for state ``x``: add the golden gamma, then
    finalize. ``x`` is a uint64 array; a numpy uint64 scalar would warn on
    the wrap-around the hash relies on."""
    x = x + _SM_GAMMA
    x = (x ^ (x >> 30)) * _SM_MUL1
    x = (x ^ (x >> 27)) * _SM_MUL2
    return x ^ (x >> 31)


def _fold(h: np.ndarray, value) -> np.ndarray:
    """Fold one key field's ``value`` (an integer, or an array broadcasting
    with ``h``) into the keys ``h``."""
    return _mix(h ^ np.asarray(value, dtype=np.uint64))


def _base_tokens(spec: CorpusSpec, concepts: Sequence[int], part: str) -> np.ndarray:
    """Base tokens of each of ``concepts`` in ``part`` ("text" or "image"),
    one row per concept: ``_mix`` of
    ``concept * _CONCEPT_MUL ^ (j + 1) * _POSITION_MUL ^ part code``,
    reduced into the part's vocabulary."""
    if part == "text":
        base, size, length, code = TEXT_BASE, spec.text_vocab_size, spec.n_t, 0
    else:
        base, size, length, code = IMAGE_BASE, spec.image_vocab_size, spec.n_i, 1
    c = np.asarray(concepts, dtype=np.uint64)[:, None]
    j = np.arange(1, length + 1, dtype=np.uint64)
    x = _mix((c * _CONCEPT_MUL) ^ (j * _POSITION_MUL) ^ np.uint64(code))
    return x % np.uint64(size) + np.uint64(base)


def _renderings(spec: CorpusSpec, concepts: Sequence[int]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per modality: the noiseless rendering of each of ``concepts``, one
    row per concept and image tokens first, and a (2, length) array of each
    position's first vocabulary id and vocabulary size."""
    text = _base_tokens(spec, concepts, "text")
    image = _base_tokens(spec, concepts, "image")
    text_vocab = np.array([[TEXT_BASE], [spec.text_vocab_size]], dtype=np.uint64).repeat(spec.n_t, axis=1)
    image_vocab = np.array([[IMAGE_BASE], [spec.image_vocab_size]], dtype=np.uint64).repeat(spec.n_i, axis=1)
    return {
        "text": (text, text_vocab),
        "image": (image, image_vocab),
        "image_text": (np.hstack([image, text]), np.hstack([image_vocab, text_vocab])),
    }


def _noisy(keys: np.ndarray, rows: np.ndarray, vocab: np.ndarray, noise: float) -> np.ndarray:
    """``rows`` (keys' shape, then positions) with each position redrawn
    where its slot-0 draw falls below ``noise``, to its slot-1 draw in the
    position's vocabulary; ``keys`` are the draw keys up to the role."""
    h = _fold(keys[..., None], np.arange(rows.shape[-1], dtype=np.uint64))
    starts, sizes = vocab
    redraw = (_fold(h, 0) >> 11) * 2.0**-53 < noise
    return np.where(redraw, starts + _fold(h, 1) % sizes, rows)


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
        """Write ``meta.json``: the seed and spec ``load`` generates the
        corpus again from."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "meta.json", "w", encoding="utf-8") as f:
            json.dump({"seed": self.seed, "spec": asdict(self.spec)}, f)

    @classmethod
    def load(cls, directory: str | Path) -> "Corpus":
        """Generate the corpus a saved ``meta.json`` names. Malformed JSON,
        a missing key, any key besides ``seed`` and ``spec`` (``train_ids``
        marks the old three-file layout), a spec that CorpusSpec rejects and
        a seed that is not a non-negative integer raise FormatError, at the
        byte offset of a UTF-8 or JSON error or else at 0."""
        meta_path = Path(directory) / "meta.json"
        try:
            text = meta_path.read_bytes().decode("utf-8")
            meta = json.loads(text)
            spec_dict = dict(meta["spec"])
            spec_dict["tasks"] = tuple(spec_dict["tasks"])
            spec = CorpusSpec(**spec_dict)
            seed = meta["seed"]
        except UnicodeDecodeError as err:
            raise FormatError(f"{meta_path.name}: not UTF-8 ({err.reason})", err.start) from err
        except json.JSONDecodeError as err:
            # pos counts characters; the offset counts bytes
            offset = len(text[: err.pos].encode("utf-8"))
            raise FormatError(f"{meta_path.name}: {err.msg}", offset) from err
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"{meta_path.name}: bad metadata ({err!r})", 0) from err
        except (ConfigurationError, ContractError) as err:
            raise FormatError(f"{meta_path.name}: bad corpus spec ({err})", 0) from err
        extra = sorted(set(meta) - {"seed", "spec"})
        if extra:
            raise FormatError(
                f"{meta_path.name}: unexpected keys {extra}; a saved corpus is its seed and spec alone, "
                "and the old three-file layout (queries.jsonl, candidates.jsonl and train_ids) "
                "is not read: run gen-data again",
                0,
            )
        if type(seed) is not int or seed < 0:
            raise FormatError(f"{meta_path.name}: seed must be a non-negative integer, got {seed!r}", 0)
        return generate_corpus(spec, seed)


def generate_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    """Build the corpus; fully deterministic in (spec, seed)."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    n, d, p = spec.n_concepts, spec.distractors, spec.noise
    split_rng = np.random.default_rng([seed, 0])
    n_test = int(round(spec.test_fraction * n))
    test_concepts = set(int(c) for c in split_rng.permutation(n)[:n_test])
    renderings = _renderings(spec, range(n))
    seed_key = np.zeros(1, dtype=np.uint64)
    for s in range(0, max(seed.bit_length(), 1), 64):
        seed_key = _fold(seed_key, seed >> s & _WORD)
    concepts = np.arange(n, dtype=np.uint64)
    # one Python int per vocabulary id, shared by every token that holds it:
    # a token of its own would more than double the memory a corpus holds
    token_ints = np.arange(vocab_size_for(spec)).astype(object)

    train: list[Sample] = []
    test: list[Sample] = []
    pools: dict[str, list[Candidate]] = {}
    for task in spec.tasks:
        qid, cid = len(train) + len(test), sum(map(len, pools.values()))
        keys = _fold(_fold(seed_key, TASKS.index(task)), concepts)[:, None]
        role_keys = _fold(keys, np.arange(2 + d, dtype=np.uint64))  # (n, 2 + d)
        # the r-th distractor's concept is its role's draw at position 0, slot 2;
        # n - 1 is 0 only when the spec asks for no distractors
        draw = _fold(_fold(role_keys[:, 2:], 0), 2)
        other = (concepts[:, None] + 1 + draw % np.uint64(n - 1)) % np.uint64(n)
        item_concepts = np.hstack([concepts[:, None], other])  # positive, then distractors

        rows, vocab = renderings[QUERY_MODALITY[task]]
        q_tokens = token_ints[_noisy(role_keys[:, 0], rows, vocab, p)].tolist()
        rows, vocab = renderings[CANDIDATE_MODALITY[task]]
        c_tokens = token_ints[_noisy(role_keys[:, 1:], rows[item_concepts], vocab, p)]
        pools[DATASETS[task]] = [
            Candidate(cid + i, task, tuple(tokens), concept)
            for i, (tokens, concept) in enumerate(
                zip(c_tokens.reshape(n * (1 + d), rows.shape[1]).tolist(), item_concepts.ravel().tolist())
            )
        ]
        for c, tokens in enumerate(q_tokens):
            sample = Sample(qid + c, task, tuple(tokens), cid + c * (1 + d))
            (test if c in test_concepts else train).append(sample)
    return Corpus(spec=spec, seed=seed, train=train, test=test, pools=pools)
