"""Compositions of the same rows under one BLAS kernel, on a d=8 encoder
over prompts of 13, 21 and 29 tokens: one 8-shard stage-2 step against the
same step as one shard and against a forward per prompt, and an
``embed_raw`` of a 64-prompt batch against each prompt embedded alone.

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/kernel_probe.py

Prints one JSON object: ``core``, the kernel numpy's OpenBLAS runs (null
where numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS whose core name can be
read), ``worst``, the largest gradient difference between the 8-shard and
the 1-shard step, ``prompt_worst``, the largest between the 8-shard step
and the per-prompt reference, ``scale``, the largest entry of the latter's
gradients, and ``embed_worst``, the largest
difference between a batch row and that prompt's row alone, relative to
the largest entry of the latter. OpenBLAS reads ``OPENBLAS_CORETYPE`` when
it loads, so each kernel needs a fresh interpreter.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys

import numpy as np


def openblas_core() -> str | None:
    """The kernel numpy's bundled DYNAMIC_ARCH OpenBLAS picked, read with
    ctypes, or None."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def main() -> None:
    core = openblas_core()
    worst = prompt_worst = scale = embed_worst = None
    if core is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from test_trainer import (
            MIXED_ENC,
            config,
            mixed_corpus_by_task,
            per_prompt_embed,
            round_robin_batch,
        )

        from umrlab import tensor as T
        from umrlab import trainer
        from umrlab.encoder import Encoder, embed_raw, prune
        from umrlab.prompts import assemble_prompt

        enc = prune(Encoder.init(MIXED_ENC, seed=3), 2)
        corpus, by_task = mixed_corpus_by_task()
        batch = round_robin_batch(corpus, by_task)

        def step(shards):
            cfg = config(2, encoder=MIXED_ENC, shards=shards, per_shard_batch=8 // shards)
            grads, _ = trainer.compute_global_grads(enc, None, batch, cfg, 0.5)
            return {n: T.dense_grad(g) for n, g in grads.items()}

        def largest_difference(a, b):
            return max(float(np.abs(a[n] - b[n]).max()) for n in b)

        grads, one_shard = step(8), step(1)
        trainer.embed_taped = per_prompt_embed
        per_prompt = step(8)
        worst = largest_difference(grads, one_shard)
        prompt_worst = largest_difference(grads, per_prompt)
        scale = max(float(np.abs(g).max()) for g in per_prompt.values())

        # the corpus's 64 prompts, queries then candidates, in runs of each length
        prompts = [assemble_prompt(s, "query") for s in corpus.train + corpus.test]
        prompts += [assemble_prompt(c, "candidate") for c in corpus.all_candidates()]
        batch = embed_raw(enc, prompts, 2)
        embed_worst = max(
            float(np.abs(row - alone).max() / np.abs(alone).max())
            for row, alone in zip(batch, (embed_raw(enc, [p], 2)[0] for p in prompts))
        )
    print(json.dumps({
        "core": core, "worst": worst, "prompt_worst": prompt_worst, "scale": scale,
        "embed_worst": embed_worst,
    }))


if __name__ == "__main__":
    main()
