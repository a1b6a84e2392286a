"""Toy-size self-test of the benchmark harness.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
no operation fails on the program as it stands, that the per-layer counts
take their known values, and that the correctness checks do catch a broken
program. Nothing here depends on timing.

    python -m pytest umrbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import umrlab.retrieval  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

TOY = workloads.Scale(
    distill_concepts=10,
    instruct_concepts=5,
    retrieve_concepts=10,
    per_shard_batch=1,
    teacher_steps=1,
    setup_reps=2,
    min_steps=1,
    min_queries=1,
    queries_per_round=8,
    depth_subset=4,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_run(tmp_path, name, trace, seed=3):
    return workloads.run(name, seed, 0.01, trace, tmp_path / "work", scale=TOY)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.NAMES)
    for key, table in (("end_to_end", workloads.E2E), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(tmp_path, name):
    result = toy_run(tmp_path, name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(workloads.E2E)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == workloads.E2E[key][0]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, key
    error_rate = [value for n, value, _, _ in result["report"] if n == "error_rate"]
    assert error_rate == [0.0]


EXPECTED_COUNTS = {
    "distill": {
        "losses.loss_evals_per_step": 1,
        "losses.distill_evals_per_step": 1,
        "trainer.teacher_cache_hit_ratio": 2 / 3,
        "encoder.forward_raw_calls": 0,
        "tensor.backward_calls": 1,
    },
    "instruct-sharded": {
        "losses.loss_evals_per_step": 8,
        "losses.distill_evals_per_step": 0,
        "encoder.forward_nograd_calls": 0,
        "encoder.forward_raw_calls": 0,
        "tensor.backward_calls": 8,
    },
    "retrieve": {
        "retrieval.embed_query_calls_per_eval_query": 2,
        "encoder.forward_calls": 0,
        "tensor.backward_calls": 0,
        "losses.loss_evals_per_step": 0,
    },
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_emitted(tmp_path, name):
    result = toy_run(tmp_path, name, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[key][0]
        assert math.isfinite(metric["value"]), key
    for key, want in EXPECTED_COUNTS[name].items():
        assert result["metrics"][key]["value"] == pytest.approx(want, abs=1e-12), key
    spans = result["tracer"]
    assert spans.name and all(e >= s for s, e in zip(spans.start, spans.end))


def test_same_seed_same_digest(tmp_path):
    first = toy_run(tmp_path, "instruct-sharded", trace=False)
    assert toy_run(tmp_path, "instruct-sharded", trace=False)["digest"] == first["digest"]


def test_wrong_search_results_are_failures(tmp_path, monkeypatch):
    search = umrlab.retrieval.search_topk

    def wrong(index, query, k, datasets=None):
        return search(index, query, k, datasets)[::-1]

    monkeypatch.setattr(umrlab.retrieval, "search_topk", wrong)
    result = toy_run(tmp_path, "retrieve", trace=False)
    assert not result["correct"] and result["failed"] >= TOY.queries_per_round


def test_lossy_index_round_trip_is_a_failure(tmp_path, monkeypatch):
    load = umrlab.retrieval.load_index

    def lossy(path):
        index = load(path)
        index.vectors = np.round(index.vectors, 3)
        return index

    monkeypatch.setattr(umrlab.retrieval, "load_index", lossy)
    assert toy_run(tmp_path, "retrieve", trace=False)["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "distill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
