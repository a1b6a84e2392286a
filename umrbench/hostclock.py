"""A host-speed reference for timing training steps on a shared machine.

On the 2-vCPU host this benchmark was tuned on, the speed of one thread
depends on what other tenants run beside it: a fixed piece of small-array
numpy work takes 22 ms or 37 ms from one moment to the next, and the mix
drifts over minutes. Wall-clock times of identical runs drifted by up to 40%
within a quarter of an hour, with CPU time equal to wall time throughout.

``HostClock`` runs a small fixed kernel about once per ``SPACING_S`` of
measured work, so its samples see the same mix of fast and slow moments as
the work does: between training steps, and on retrieve from inside the
index build's per-candidate embedding calls, since a build is one long call.
The mean sample time over ``NOMINAL_S`` is the run's slowdown; the harness
divides measured times by it, after taking the kernel's own time out of
them. The kernel never calls umrlab, so a change to the program cannot move
it.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# A typical mean kernel time on the host the bounds were set on (2 vCPUs,
# numpy 2.4 with OpenBLAS); it only scales the reported times.
NOMINAL_S = 1.1e-3
SPACING_S = 0.025


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(21, 32))
        self._w = rng.normal(size=(32, 32)) * 0.1
        self._w1 = rng.normal(size=(32, 128)) * 0.1
        self._w2 = rng.normal(size=(128, 32)) * 0.1
        self.samples: list[float] = []
        self.sampled_s = 0.0  # kernel time so far, to take out of measured time
        self._owed = 0.0
        self._last = perf_counter()

    def _kernel(self) -> None:
        """Small-array numpy work of the kind a 21-token forward does, and
        about as long again of plain Python: object, dict and integer work
        of the kind the tape, the prompts and the corpus generator do."""
        x = self._x
        for _ in range(6):
            h = x @ self._w
            h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + 1e-5)
            f = h @ self._w1
            f = 0.5 * f * (1.0 + np.tanh(0.7978845608028654 * (f + 0.044715 * f * f * f)))
            x = x + 0.01 * (f @ self._w2)
        seen = {}
        for i in range(600):
            key = (i & 7, (i * 0x9E3779B1) & 0xFFFF)
            seen[key] = seen.get(key, 0) + len(str(i))

    def _sample(self) -> None:
        t0 = perf_counter()
        self._kernel()
        self._last = perf_counter()
        self.samples.append(self._last - t0)
        self.sampled_s += self.samples[-1]

    def after(self, measured_s: float) -> None:
        """Account for an operation that took measured_s, sampling once for
        every SPACING_S of measured time accumulated so far."""
        self._owed += measured_s
        while self._owed >= SPACING_S or not self.samples:
            self._owed = max(0.0, self._owed - SPACING_S)
            self._sample()

    def tick(self) -> None:
        """Sample if SPACING_S has passed since the last sample."""
        if perf_counter() - self._last >= SPACING_S:
            self._sample()

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / NOMINAL_S


@contextmanager
def ticking(clock: HostClock, module, attr: str):
    """Call ``clock.tick()`` after every call of ``module.attr``."""
    original = getattr(module, attr)

    def ticked(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            clock.tick()

    setattr(module, attr, ticked)
    try:
        yield
    finally:
        setattr(module, attr, original)
