"""In-memory span tracer for the traced benchmark run.

The tracer records spans around calls into umrlab by replacing public
functions on umrlab's modules for the duration of a run and putting them
back afterwards; no file under ``src/`` is edited. Because umrlab's modules
look their collaborators up as module globals at call time, replacing
``umrlab.trainer.embed`` wraps exactly the calls the trainer makes, and so on
for every entry in ``_call_sites``.

A span is (name, start, end, parent). Bookkeeping the tracer does inside a
span, such as counting tape nodes, is recorded as excluded time, so a span's
self time is its duration minus its children minus that bookkeeping.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

import umrlab.encoder
import umrlab.retrieval
import umrlab.tensor
import umrlab.trainer

# Name, unit and better direction of every per-layer metric. Counts and
# times are per measured unit: one train step on the training workloads,
# one round on retrieve. Set-up metrics are medians over set-up repeats.
PER_LAYER = {
    "datagen.generate_s": ("s", "lower"),
    "datagen.corpus_load_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "prompts.assemble_calls": ("count", "lower"),
    "prompts.assemble_self_s": ("s", "lower"),
    "encoder.forward_calls": ("count", "lower"),
    "encoder.forward_self_s": ("s", "lower"),
    "encoder.forward_nograd_calls": ("count", "lower"),
    "encoder.forward_nograd_self_s": ("s", "lower"),
    "encoder.forward_raw_calls": ("count", "lower"),
    "encoder.forward_raw_self_s": ("s", "lower"),
    "encoder.gflops_achieved": ("GFLOP/s", "higher"),
    "encoder.depth_cost_ratio": ("ratio", "lower"),
    "encoder.depth_flops_ratio": ("ratio", "lower"),
    "tensor.backward_calls": ("count", "lower"),
    "tensor.backward_self_s": ("s", "lower"),
    "tensor.tape_nodes_per_step": ("count", "lower"),
    "losses.loss_evals_per_step": ("count", "lower"),
    "losses.distill_evals_per_step": ("count", "lower"),
    "losses.self_s": ("s", "lower"),
    "trainer.grads_self_s": ("s", "lower"),
    "trainer.gather_reduce_s": ("s", "lower"),
    "trainer.teacher_cache_hit_ratio": ("ratio", "higher"),
    "trainer.step_split.forward_frac": ("ratio", "lower"),
    "trainer.step_split.loss_frac": ("ratio", "lower"),
    "trainer.step_split.backward_frac": ("ratio", "lower"),
    "trainer.step_split.reduce_frac": ("ratio", "lower"),
    "trainer.step_split.update_frac": ("ratio", "lower"),
    "optim.adam_self_s": ("s", "lower"),
    "retrieval.build_index_self_s": ("s", "lower"),
    "retrieval.index_save_s": ("s", "lower"),
    "retrieval.index_load_s": ("s", "lower"),
    "retrieval.index_bytes": ("B", "lower"),
    "retrieval.search_local_p50_ms": ("ms", "lower"),
    "retrieval.search_global_p50_ms": ("ms", "lower"),
    "retrieval.rows_scanned_per_search": ("count", "lower"),
    "retrieval.embed_query_calls_per_eval_query": ("count", "lower"),
    "retrieval.separation_s": ("s", "lower"),
    "retrieval.separation_alloc_peak_mb": ("MB", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

LOSS_SPANS = (
    "losses.cosine_similarity_matrix",
    "losses.infonce",
    "losses.mac_loss",
    "losses.self_distill",
    "losses.pretraining_loss",
)
FORWARD_SPANS = ("encoder.forward", "encoder.forward_nograd", "encoder.forward_raw")


class Tracer:
    """Spans in parallel lists; indices are span ids, parents precede children."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.excluded: list[float] = []
        self.payload: dict[int, float] = {}
        self._stack: list[int] = []
        self.teacher = None

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.excluded.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def bookkeep(self, i: int, fn, *args, **kwargs) -> None:
        """Run ``fn(*args, **kwargs)`` inside span i, store its result as the
        span's payload and leave its time out of every self time."""
        t = perf_counter()
        self.payload[i] = float(fn(*args, **kwargs))
        self.excluded[i] += perf_counter() - t

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, name in enumerate(self.name):
                record = {
                    "id": i,
                    "name": name,
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                }
                if i in self.payload:
                    record["payload"] = self.payload[i]
                f.write(json.dumps(record) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off: spans cost one call."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


def _forward_name(tracer: Tracer):
    def name(encoder, *args, **kwargs):
        return "encoder.forward_nograd" if encoder is tracer.teacher else "encoder.forward"

    return name


def _forward_flops(encoder, tokens, upto):
    return umrlab.encoder.estimate_flops(encoder.config, upto, len(tokens))


def _tape_nodes(root, *args, **kwargs):
    return len(umrlab.tensor.ComputeGraph.of(root).nodes)


def _search_name(index, query, k, datasets=None):
    return "retrieval.search_global" if datasets is None else "retrieval.search_local"


def _rows_scanned(index, query, k, datasets=None):
    if datasets is None:
        return len(index)
    codes = [index.dataset_code(d) if isinstance(d, str) else int(d) for d in datasets]
    return np.count_nonzero(np.isin(index.dataset_codes, codes))


def _call_sites(tracer: Tracer):
    """(module, attribute, span name or naming function, payload function)."""
    tr, rv, en, te = umrlab.trainer, umrlab.retrieval, umrlab.encoder, umrlab.tensor
    sites = [
        (tr, "assemble_prompt", "prompts.assemble_prompt", None),
        (rv, "assemble_prompt", "prompts.assemble_prompt", None),
        (tr, "embed", "encoder.embed", None),
        (en, "forward", _forward_name(tracer), _forward_flops),
        (rv, "embed_raw", "encoder.embed_raw", None),
        (en, "forward_raw", "encoder.forward_raw", _forward_flops),
        (te, "backward", "tensor.backward", _tape_nodes),
        (tr, "compute_global_grads", "trainer.compute_global_grads", None),
        (tr, "gather_shards", "trainer.gather_shards", None),
        (tr, "all_reduce_grads", "trainer.all_reduce_grads", None),
        (tr, "adam_update", "optim.adam_update", None),
        (tr, "train_step", "trainer.train_step", None),
        (rv, "build_index", "retrieval.build_index", None),
        (rv, "embed_query", "retrieval.embed_query", None),
        (rv, "search_topk", _search_name, _rows_scanned),
        (rv, "save_index", "retrieval.save_index", None),
        (rv, "load_index", "retrieval.load_index", None),
        (rv, "evaluate", "retrieval.evaluate", None),
        (rv, "modality_separation", "retrieval.modality_separation", None),
    ]
    for fn in ("cosine_similarity_matrix", "infonce", "mac_loss", "self_distill", "pretraining_loss"):
        sites.append((tr, fn, f"losses.{fn}", None))
    return sites


def _wrap(tracer: Tracer, fn, name, payload):
    def traced(*args, **kwargs):
        i = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            if payload is not None:
                tracer.bookkeep(i, payload, *args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every call site for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name, payload in _call_sites(tracer):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, payload))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# aggregation


class Spans:
    """Derived views of a finished trace: durations and self times, both
    net of the tracer's bookkeeping anywhere inside the span, and roots."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer.name)
        hidden = list(tracer.excluded)
        for i in reversed(range(n)):
            p = tracer.parent[i]
            if p >= 0:
                hidden[p] += hidden[i]
        self.dur = [tracer.end[i] - tracer.start[i] - hidden[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        self.root = [0] * n
        for i in range(n):
            p = tracer.parent[i]
            self.root[i] = i if p < 0 else self.root[p]

    def under(self, root_name: str) -> list[int]:
        """Spans whose outermost ancestor is named ``root_name``."""
        names = self.t.name
        return [i for i in range(len(names)) if names[self.root[i]] == root_name]

    def inside(self, i: int, name: str) -> int:
        """Nearest ancestor of span i named ``name``, or -1."""
        p = self.t.parent[i]
        while p >= 0 and self.t.name[p] != name:
            p = self.t.parent[p]
        return p


def _median(values):
    return statistics.median(values) if values else 0.0


def _p50_ms(values):
    return 1000.0 * _median(values)


def layer_metrics(tracer: Tracer, extras: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of measured units (root span "unit")
    and set-up repeats (root span "setup").

    ``extras`` carries what the harness counts itself: ``units`` (steps or
    rounds traced), ``cache_hits``/``cache_lookups``, ``test_queries`` (test
    queries per evaluate call), ``separation_peak_b`` and the untraced and
    traced unit times for the overhead, and the file sizes and the analytic
    depth ratio the workload measured.
    """
    s = Spans(tracer)
    names = tracer.name
    units = extras["units"]

    def per_unit(x):
        return x / units if units else 0.0

    measured: dict[str, list[int]] = {}
    for i in s.under("unit"):
        measured.setdefault(names[i], []).append(i)

    def count(name):
        return per_unit(len(measured.get(name, ())))

    def self_sum(*span_names):
        return per_unit(sum(s.self_time[i] for n in span_names for i in measured.get(n, ())))

    def dur_sum(*span_names):
        return sum(s.dur[i] for n in span_names for i in measured.get(n, ()))

    def setup_median(name):
        per_rep: dict[int, float] = {}
        for i in s.under("setup"):
            if names[i] == name:
                per_rep[s.root[i]] = per_rep.get(s.root[i], 0.0) + s.dur[i]
        return _median(list(per_rep.values()))

    fwd = [i for n in FORWARD_SPANS for i in measured.get(n, ())]
    fwd_time = sum(s.self_time[i] for i in fwd)
    flops = sum(tracer.payload[i] for i in fwd)

    depth_time = {}
    for label in ("depth.k", "depth.L"):
        depth_time[label] = sum(
            s.self_time[i] for i in measured.get("encoder.forward_raw", ()) if s.inside(i, label) >= 0
        )

    local = [s.dur[i] for i in measured.get("retrieval.search_local", ())]
    global_ = [s.dur[i] for i in measured.get("retrieval.search_global", ())]
    searches = [*measured.get("retrieval.search_local", ()), *measured.get("retrieval.search_global", ())]
    eval_embeds = sum(
        1 for i in measured.get("retrieval.embed_query", ()) if s.inside(i, "retrieval.evaluate") >= 0
    )
    evals = len(measured.get("retrieval.evaluate", ()))

    step_time = dur_sum("trainer.train_step")

    def frac(x):
        return x / step_time if step_time else 0.0

    lookups = extras.get("cache_lookups", 0)
    untraced, traced = extras.get("untraced_unit_s", []), extras.get("traced_unit_s", [])
    overhead = _median(traced) - _median(untraced) if untraced and traced else 0.0

    return {
        "datagen.generate_s": setup_median("datagen.generate_corpus"),
        "datagen.corpus_load_s": setup_median("datagen.corpus_load"),
        "checkpoint.save_s": setup_median("checkpoint.save"),
        "checkpoint.load_s": setup_median("checkpoint.load"),
        "checkpoint.bytes": extras.get("checkpoint_bytes", 0),
        "prompts.assemble_calls": count("prompts.assemble_prompt"),
        "prompts.assemble_self_s": self_sum("prompts.assemble_prompt"),
        "encoder.forward_calls": count("encoder.forward"),
        "encoder.forward_self_s": self_sum("encoder.forward"),
        "encoder.forward_nograd_calls": count("encoder.forward_nograd"),
        "encoder.forward_nograd_self_s": self_sum("encoder.forward_nograd"),
        "encoder.forward_raw_calls": count("encoder.forward_raw"),
        "encoder.forward_raw_self_s": self_sum("encoder.forward_raw"),
        "encoder.gflops_achieved": flops / fwd_time / 1e9 if fwd_time else 0.0,
        "encoder.depth_cost_ratio": (
            depth_time["depth.k"] / depth_time["depth.L"] if depth_time["depth.L"] else 0.0
        ),
        "encoder.depth_flops_ratio": extras.get("depth_flops_ratio", 0.0),
        "tensor.backward_calls": count("tensor.backward"),
        "tensor.backward_self_s": self_sum("tensor.backward"),
        "tensor.tape_nodes_per_step": per_unit(
            sum(tracer.payload[i] for i in measured.get("tensor.backward", ()))
        ),
        "losses.loss_evals_per_step": count("losses.infonce") + count("losses.mac_loss"),
        "losses.distill_evals_per_step": count("losses.self_distill"),
        "losses.self_s": self_sum(*LOSS_SPANS),
        "trainer.grads_self_s": self_sum("trainer.compute_global_grads"),
        "trainer.gather_reduce_s": per_unit(dur_sum("trainer.gather_shards", "trainer.all_reduce_grads")),
        "trainer.teacher_cache_hit_ratio": extras.get("cache_hits", 0) / lookups if lookups else 0.0,
        "trainer.step_split.forward_frac": frac(dur_sum("encoder.embed", "prompts.assemble_prompt")),
        "trainer.step_split.loss_frac": frac(dur_sum(*LOSS_SPANS)),
        "trainer.step_split.backward_frac": frac(
            sum(s.self_time[i] for i in measured.get("tensor.backward", ()))
        ),
        "trainer.step_split.reduce_frac": frac(dur_sum("trainer.gather_shards", "trainer.all_reduce_grads")),
        "trainer.step_split.update_frac": frac(dur_sum("optim.adam_update")),
        "optim.adam_self_s": self_sum("optim.adam_update"),
        "retrieval.build_index_self_s": self_sum("retrieval.build_index"),
        "retrieval.index_save_s": per_unit(dur_sum("retrieval.save_index")),
        "retrieval.index_load_s": per_unit(dur_sum("retrieval.load_index")),
        "retrieval.index_bytes": extras.get("index_bytes", 0),
        "retrieval.search_local_p50_ms": _p50_ms(local),
        "retrieval.search_global_p50_ms": _p50_ms(global_),
        "retrieval.rows_scanned_per_search": (
            sum(tracer.payload[i] for i in searches) / len(searches) if searches else 0.0
        ),
        "retrieval.embed_query_calls_per_eval_query": (
            eval_embeds / (evals * extras["test_queries"]) if evals else 0.0
        ),
        "retrieval.separation_s": per_unit(dur_sum("retrieval.modality_separation")),
        "retrieval.separation_alloc_peak_mb": extras.get("separation_peak_b", 0) / 2**20,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / _median(untraced) if untraced and traced else 0.0,
    }
