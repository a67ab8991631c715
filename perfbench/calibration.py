"""Machine-speed probe that scales timings to a nominal machine speed.

The benchmark host shares its cores with other tenants. Its speed drifts
by up to a factor of 2 over tens of seconds, so raw times from runs a few
minutes apart are not comparable. The probe is a fixed piece of work that
does not touch fbmilt: a dense Gaussian-weight block (matrix product,
exp, weighted sum) on fixed random points. After every timed operation
it runs for ``SHARE`` of that operation's time, and at least ``MIN_S``,
so that it averages over a comparable stretch of the machine's noise.
Each operation's time is multiplied by ``NOMINAL_S / probe``, where
``probe`` is the mean of the probe times just before and just after it.

On a shared 2-vCPU host, over five minutes, the scaled times of
sampler-bound, kernel-bound and cubature-bound operations varied between
20-second windows by 2-6% (coefficient of variation), against 5-13%
unscaled. Probes written to mimic each kind of operation did no better.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.015
SHARE = 0.1
MIN_S = 0.05


class Probe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((1024, 3))
        self._y = rng.standard_normal((1601, 3))
        self._w = np.full(1601, 1.0 / 1600)

    def __call__(self, op_seconds: float) -> float:
        """Mean seconds of one run of the fixed work, repeated for ``SHARE``
        of ``op_seconds`` and at least ``MIN_S``."""
        seconds = max(MIN_S, SHARE * op_seconds)
        reps = 0
        t0 = time.perf_counter()
        while True:
            self._work()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / reps

    def _work(self):
        x, y, w = self._x, self._y, self._w
        yy = np.einsum("ij,ij->i", y, y)
        for i0 in range(0, len(x), 512):
            xb = x[i0:i0 + 512]
            sq = np.einsum("ij,ij->i", xb, xb)[:, None] + yy[None, :] - 2.0 * (xb @ y.T)
            np.exp(-1.5 * sq, out=sq)
            float(w[:len(xb)] @ sq @ w)


def scaled(seconds: float, before, after: float) -> float:
    """``seconds`` as it would read on a machine where the probe takes
    NOMINAL_S, from the probe times just before (None if there was no
    probe) and just after the timed work."""
    probe = after if before is None else 0.5 * (before + after)
    return seconds * NOMINAL_S / probe
