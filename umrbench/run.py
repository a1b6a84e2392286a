"""Run one umrlab benchmark workload, or all of them.

    python3 umrbench/run.py --workload distill --seed 1 --seconds 20 --trace 0
    python3 umrbench/run.py --workload all --seed 1

Run from the root of a checkout: the program under test is the checkout's
``src/umrlab``. Report lines go to standard output first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
The full record, with provenance, and the spans of a traced run are written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("distill", "instruct-sharded", "retrieve")


def _import_program():
    if not (SRC / "umrlab" / "__init__.py").is_file():
        sys.exit(f"error: no umrlab sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import umrlab

    if Path(umrlab.__file__).resolve().parent != (SRC / "umrlab").resolve():
        sys.exit(f"error: imported umrlab from {umrlab.__file__}, not from {SRC}")
    return umrlab


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(result: dict, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "umrlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            var: os.environ.get(var, "library default")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "corpus_spec": asdict(result["corpus_spec"]),
        "encoder_config": asdict(result["encoder_config"]),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import workloads

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    result = workloads.run(workload, seed, seconds, trace, OUT / f"work-{tag}-{os.getpid()}")
    record = {
        "workload": workload,
        "provenance": provenance(result, seed),
        "digest": result["digest"],
        "report": [
            {"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in result["report"]
        ],
        **{k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if result["tracer"] is not None:
        result["tracer"].write(OUT / f"{tag}.spans.jsonl")

    print(f"# {workload} seed={seed} trace={int(trace)} digest={result['digest']}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, value, unit, note in result["report"]:
        print(f"{name} = {value:.6g} {unit}  ({note})")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    code = 0
    for workload in NAMES:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *args, "--trace", str(int(trace))],
            cwd=ROOT,
        )
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
