"""Embedding index, cosine top-k search and Recall@k evaluation.

Index vectors are L2-normalized and quantized to float32 at build time; all
search determinism guarantees are stated over those stored 32-bit values,
so a save/load round-trip can never change a result. Search is exhaustive
(flat); pools at this scale never justify approximate structures.

An index stores, per candidate, only its id, its task and its vector. The
task is kept as its position in ``TASKS`` (the dataset code); the
candidate's dataset (``DATASETS``) and modality (``CANDIDATE_MODALITY``)
follow from it. An index file is the magic ``PUMAIDX2``, the u32 record
count and the u32 dim, then one record per candidate: u32 id, u8 task code,
3 zero bytes and ``dim`` float32s, all little-endian.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from .binfile import Reader
from .datagen import Candidate, Corpus, Sample
from .encoder import Encoder, embed_raw, length_groups
from .errors import ContractError, FormatError, LengthError
from .prompts import TokenSequence, assemble_prompt
from .tasks import CANDIDATE_MODALITY, DATASETS, MODALITIES, MODALITY_CODES, TASKS
from .tensor import NORM_EPS

INDEX_MAGIC = b"PUMAIDX2"
# a candidate's dataset code is its task's position in TASKS
DATASET_CODES = {DATASETS[task]: code for code, task in enumerate(TASKS)}
# the candidate modality code of each dataset code
_CODE_MODALITY = np.array([MODALITY_CODES[CANDIDATE_MODALITY[task]] for task in TASKS], dtype=np.uint8)
# Candidates per batched forward in build_index. Smaller chunks pay more
# per-op call cost, larger ones fall out of cache: with the in-place array
# kernels, building 1,800 candidates at d=32, k=3 after a stage-0 training
# took 314-381 / 249-305 / 263-313 / 260-321 ms at chunks of 8 / 32 / 64 /
# 128 (medians of 15 interleaved rounds in each of 3 processes, 2 vCPUs);
# 32 was fastest in each process, 64 and 128 within 6% of it. A GEMM's bits
# depend on its row count, so another chunk size changes the stored vectors.
EMBED_CHUNK = 32


@dataclass
class EmbeddingIndex:
    ids: np.ndarray  # int64
    dataset_codes: np.ndarray  # uint8, positions in TASKS
    vectors: np.ndarray  # float32, rows normalized (or all-zero degenerate)
    # (vectors, its float64 copy) for search. build_index and load_index make
    # vectors read-only; replace the array rather than write into it
    _scored: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def modality_codes(self) -> np.ndarray:
        """Each candidate's modality code, as its task gives it."""
        return _CODE_MODALITY[self.dataset_codes]

    def vectors_f64(self) -> np.ndarray:
        """``vectors`` as float64, copied once per ``vectors`` array."""
        if self._scored is None or self._scored[0] is not self.vectors:
            self._scored = (self.vectors, self.vectors.astype(np.float64))
        return self._scored[1]

    def dataset_code(self, name: str) -> int:
        """The code of dataset ``name``, whether or not the index holds any
        of its candidates."""
        try:
            return DATASET_CODES[name]
        except KeyError:
            raise ContractError(f"dataset {name!r} belongs to no task") from None


def _normalize(vec: np.ndarray) -> np.ndarray:
    # np.linalg.norm's own arithmetic for a 1-D vector, without its wrapper
    return vec / max(math.sqrt(vec @ vec), NORM_EPS)


def embed_prompts(
    encoder: Encoder, seqs: Sequence[TokenSequence], depth: int | None = None
) -> np.ndarray:
    """Normalized tape-free embeddings of assembled prompts, shape (N, d_model),
    row i for ``seqs[i]``. ``depth`` defaults to the encoder's full depth.

    Prompts of equal length are embedded together, up to EMBED_CHUNK per
    :func:`embed_raw` call, so a row does not depend on the other prompts.
    """
    depth = encoder.config.n_layers if depth is None else depth
    vectors = np.zeros((len(seqs), encoder.config.d_model))
    for rows in length_groups(seqs):
        for start in range(0, len(rows), EMBED_CHUNK):
            chunk = rows[start : start + EMBED_CHUNK]
            for row, vec in zip(chunk, embed_raw(encoder, [seqs[r] for r in chunk], depth)):
                vectors[row] = _normalize(vec)
    return vectors


def build_index(encoder: Encoder, candidates: Sequence[Candidate], k_layers: int | None = None) -> EmbeddingIndex:
    """Prompt, forward and normalize every candidate into a flat index,
    batched by prompt length through :func:`embed_prompts`."""
    seqs = []
    for cand in candidates:
        try:
            seqs.append(assemble_prompt(cand, "candidate", encoder.config.max_seq))
        except LengthError as err:
            raise LengthError(f"candidate {cand.id}: {err}") from None
    n = len(candidates)
    ids = np.array([c.id for c in candidates], dtype=np.int64)
    dataset = np.array([DATASET_CODES[c.dataset] for c in candidates], dtype=np.uint8)
    if len(set(ids.tolist())) != n:
        raise ContractError("candidate ids must be unique")
    vectors = embed_prompts(encoder, seqs, k_layers).astype(np.float32)
    vectors.flags.writeable = False
    return EmbeddingIndex(ids, dataset, vectors)


def embed_query(encoder: Encoder, sample: Sample) -> np.ndarray:
    return embed_prompts(encoder, [assemble_prompt(sample, "query", encoder.config.max_seq)])[0]


def search_topk(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    datasets: Sequence[str] | None = None,
) -> list[tuple[int, float]]:
    """Top-k by cosine, descending; ties broken by ascending candidate id.
    ``datasets`` names the dataset tags to search; None searches them all."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise ContractError(f"query width {query.shape} != index dim {index.dim}")
    if datasets is None:
        keep = slice(None)
    else:
        # one flag per dataset code, looked up row by row
        chosen = np.zeros(len(TASKS), dtype=bool)
        chosen[[index.dataset_code(d) for d in datasets]] = True
        keep = chosen.take(index.dataset_codes)
    ids = index.ids[keep]
    if ids.size == 0:
        return []
    scores = index.vectors_f64()[keep] @ query
    if k < ids.size:
        # only rows at least as good as the k-th best (ties and NaNs included)
        # can make the top k; sort those alone
        neg = -scores
        kth = np.partition(neg, k - 1)[k - 1]
        survivors = np.flatnonzero(~(neg > kth))
        ids, scores = ids[survivors], scores[survivors]
    order = np.lexsort((ids, -scores))[:k]
    return [(int(ids[i]), float(scores[i])) for i in order]


def recall_at_k(
    ranked: dict[int, Sequence[int]], gold: dict[int, int], k: int
) -> float:
    """Fraction of queries whose gold candidate appears in their top k.

    Queries without results count as misses.
    """
    if not gold:
        raise ContractError("recall needs at least one query")
    if k < 1:
        raise ContractError(f"recall needs k >= 1, got {k}")
    hits = sum(1 for qid, want in gold.items() if want in list(ranked.get(qid, ()))[:k])
    return hits / len(gold)


@dataclass(frozen=True)
class SeparationStats:
    intra: float
    inter: float

    @property
    def gap(self) -> float:
        return self.intra - self.inter


def modality_separation(index: EmbeddingIndex) -> SeparationStats:
    """Mean pairwise cosine within vs across modality groups (no self-pairs).

    Computed in O(N*d) from the per-group vector sums S_g: the ordered pairs
    i != j inside group g sum to |S_g|^2 - sum_i |v_i|^2, and the pairs across
    groups to |sum_g S_g|^2 - sum_g |S_g|^2.
    """
    codes = index.modality_codes
    present, counts = np.unique(codes, return_counts=True)
    if len(present) < 2:
        raise ContractError("separation needs at least two modalities in the index")
    if counts.min() < 2:
        raise ContractError("separation needs at least two candidates per modality")
    v = index.vectors_f64()
    sums = np.stack([v[codes == c].sum(axis=0) for c in present])
    total = sums.sum(axis=0)
    within = float((sums * sums).sum())
    intra = (within - float((v * v).sum())) / float((counts * (counts - 1)).sum())
    inter = (float(total @ total) - within) / float(len(index) ** 2 - (counts * counts).sum())
    return SeparationStats(intra=intra, inter=inter)


def pca_coords(index: EmbeddingIndex) -> np.ndarray:
    """2-component PCA of the stored vectors, for external plotting."""
    if min(len(index), index.dim) < 2:
        raise ContractError(
            f"PCA needs two components: {len(index)} vectors of dimension {index.dim}"
        )
    v = index.vectors_f64()
    centered = v - v.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    # fix sign: largest-magnitude coordinate of each component positive
    for i in range(comps.shape[0]):
        j = int(np.abs(comps[i]).argmax())
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T


def write_pca_csv(index: EmbeddingIndex, path: str | Path, coords: np.ndarray) -> None:
    """Write ``coords``, the ``pca_coords(index)`` rows, with each vector's
    id and modality."""
    modality_codes = index.modality_codes
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "modality", "x", "y"])
        for i in range(len(index)):
            writer.writerow(
                [
                    int(index.ids[i]),
                    MODALITIES[modality_codes[i]],
                    f"{coords[i, 0]:.8g}",
                    f"{coords[i, 1]:.8g}",
                ]
            )


# ---------------------------------------------------------------------------
# persistence


def _record_dtype(dim: int) -> np.dtype:
    """One index record: u32 id, u8 task code, 3 zero pad bytes, then dim
    little-endian float32s."""
    return np.dtype(
        {
            "names": ["id", "task", "vector"],
            "formats": ["<u4", "u1", ("<f4", (dim,))],
            "offsets": [0, 4, 8],
            "itemsize": 8 + 4 * dim,
        }
    )


def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    """Write the header, then the record array straight to the open file,
    so a save holds one copy of the records and none of the file."""
    wide = (index.ids < 0) | (index.ids > 0xFFFFFFFF)
    if wide.any():
        raise ContractError(f"candidate id {int(index.ids[wide][0])} does not fit the u32 id field")
    records = np.zeros(len(index), dtype=_record_dtype(index.dim))
    records["id"] = index.ids
    records["task"] = index.dataset_codes
    records["vector"] = index.vectors
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC + struct.pack("<II", len(index), index.dim))
        f.write(records)


def load_index(path: str | Path) -> EmbeddingIndex:
    """Read an index file, checking its length against the header before
    allocating anything for the records. A task code outside ``TASKS``, a
    vector component that is not finite and an id that an earlier record
    holds raise FormatError at their byte."""
    with open(path, "rb") as f:
        r = Reader(f, "index")
        r.magic(INDEX_MAGIC)
        count, dim = r.unpack("<II", "header")
        record, offset = 8 + 4 * dim, r.offset
        blob = r.records(count, record, "index record")
        r.end()
    if record >= 2**31:  # numpy record sizes are C ints; only an empty index gets here
        raise FormatError(f"index dim {dim} too large", offset - 4)
    records = np.frombuffer(blob, dtype=_record_dtype(dim), count=count)
    stray = records["task"] >= len(TASKS)
    if stray.any():
        i = int(stray.argmax())
        raise FormatError(
            f"index record {i} has task code {records['task'][i]}, outside 0..{len(TASKS) - 1}",
            offset + i * record + 4,
        )
    vectors = records["vector"].astype(np.float32)
    infinite = ~np.isfinite(vectors)
    if infinite.any():
        i, j = divmod(int(infinite.argmax()), dim)
        raise FormatError(
            f"index record {i} has non-finite vector component {j}", offset + i * record + 8 + 4 * j
        )
    ids = records["id"].astype(np.int64)
    _, first = np.unique(ids, return_index=True)
    if len(first) < count:
        i = min(set(range(count)) - set(first.tolist()))
        raise FormatError(f"index record {i} repeats candidate id {ids[i]}", offset + i * record)
    vectors.flags.writeable = False
    return EmbeddingIndex(ids=ids, dataset_codes=records["task"].copy(), vectors=vectors)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class ReportRow:
    task: str
    scope: str
    k: int
    recall: float

    @property
    def dataset(self) -> str:
        return DATASETS[self.task]


@dataclass
class EvalReport:
    rows: list[ReportRow]
    checkpoint: str
    config_hash: str

    def mean_recall(self, scope: str, k: int | None = None) -> float:
        chosen = [r for r in self.rows if r.scope == scope and (k is None or r.k == k)]
        if not chosen:
            raise ContractError(f"no report rows for scope {scope!r}")
        return sum(r.recall for r in chosen) / len(chosen)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["task", "dataset", "scope", "k", "recall", "checkpoint", "config_hash"])
            for r in self.rows:
                writer.writerow(
                    [r.task, r.dataset, r.scope, r.k, f"{r.recall:.6f}", self.checkpoint, self.config_hash]
                )


def config_fingerprint(settings: dict) -> str:
    canon = ",".join(f"{key}={settings[key]!r}" for key in sorted(settings))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def check_eval(
    corpus: Corpus,
    ks: Sequence[int],
    k_overrides: dict[str, int] | None = None,
    scopes: Sequence[str] = ("local",),
) -> None:
    """Raise ContractError unless every scope is 'local' or 'global',
    ``corpus`` has test queries, ``ks`` is non-empty, every k it and the
    overrides name is at least 1, and no scope or k repeats;
    :func:`evaluate` checks this before it builds an index."""
    for scope in scopes:
        if scope not in ("local", "global"):
            raise ContractError(f"scope must be 'local' or 'global', got {scope!r}")
    for name, values in (("scope", scopes), ("k", ks)):
        if len(set(values)) < len(values):
            raise ContractError(f"eval repeats a {name}: {', '.join(map(str, values))}")
    if not corpus.test:
        raise ContractError("corpus has no test queries")
    if not ks:
        raise ContractError("recall needs at least one k")
    for k in (*ks, *(k_overrides or {}).values()):
        if k < 1:
            raise ContractError(f"recall needs k >= 1, got {k}")


def evaluate(
    encoder: Encoder,
    corpus: Corpus,
    scopes: Sequence[str] = ("local",),
    ks: Sequence[int] = (5,),
    k_overrides: dict[str, int] | None = None,
    checkpoint: str = "",
    settings: dict | None = None,
    index: EmbeddingIndex | None = None,
) -> EvalReport:
    """Recall over the test split, per (task, dataset, scope, k).

    The index is built once over all candidates, unless the caller passes
    ``build_index(encoder, corpus.all_candidates())`` as ``index``; scopes
    only change the search filter. ``k_overrides`` replaces the requested k
    values for a dataset tag (the Recall@10-style per-dataset convention).
    """
    check_eval(corpus, ks, k_overrides, scopes)
    overrides = k_overrides or {}
    if index is None:
        index = build_index(encoder, corpus.all_candidates())
    by_task: dict[str, list[Sample]] = {}
    for q in corpus.test:
        by_task.setdefault(q.task, []).append(q)
    rows: list[ReportRow] = []
    # sorted by task, which is the order of their "ds-" dataset tags
    for task in sorted(by_task):
        group, dataset = by_task[task], DATASETS[task]
        k_list = sorted({overrides.get(dataset, k) for k in ks})
        k_max = max(k_list)
        for scope in scopes:
            filt = None if scope == "global" else [dataset]
            ranked = {}
            for q in group:
                hits = search_topk(index, embed_query(encoder, q), k_max, filt)
                ranked[q.id] = [cid for cid, _ in hits]
            gold = {q.id: q.gold for q in group}
            for k in k_list:
                rows.append(
                    ReportRow(task=task, scope=scope, k=k, recall=recall_at_k(ranked, gold, k))
                )
    return EvalReport(
        rows=rows,
        checkpoint=checkpoint,
        config_hash=config_fingerprint(settings or {}),
    )
