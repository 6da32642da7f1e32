"""Host-speed calibration for the timed passes.

The machine the benchmark was defined on (2-core x86-64 VM) switches,
over seconds to minutes, between two speeds: interpreted Python runs about
1.65x slower in the slow state, BLAS about 1.2x slower, and the switch is
invisible from inside (no steal time; CPU time slows as much as wall time).
A raw wall time therefore says as much about the host as about ncdiff.

A :class:`Speed` times two fixed kernels that use no ncdiff code, one of
interpreted dict and complex arithmetic and one LAPACK call, between the
jobs of a pass.  Each kernel's speed is its reference time divided by its
measured time.  The speed factor blends them with the workload's shares
(the part of its time that slows like each kernel; the rest is taken not
to slow at all).  A stretch of wall time ``w`` between two calibration
points counts as ``w`` times the mean factor of its end points: "seconds
at the reference speed".  On the defining machine in its fast state the
factor is about 1, so the figures read as the wall times of that state.
Any change to ncdiff changes the jobs and not the kernels, so it shows in
full.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fast-state minimum times of the two kernels on the defining machine.
PY_REF_S = 0.95e-3
BLAS_REF_S = 0.73e-3
# Each calibration point takes the fastest of this many runs of each kernel.
REPEATS = 2
# A pass is calibrated before its first job, after its last job, and
# before any job that starts this long after the previous point.
INTERVAL_S = 0.2

_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def _python_kernel() -> None:
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0j) + 1j


def _blas_kernel() -> None:
    np.linalg.svd(_MATRIX, compute_uv=False)


def _fastest(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Calibration points of one run: (python s, blas s, factor) each."""

    def __init__(self, python_share: float, blas_share: float):
        self.python_share = python_share
        self.blas_share = blas_share
        self.points: list = []

    def sample(self) -> float:
        """Time both kernels now; returns the speed factor."""
        py, blas = _fastest(_python_kernel), _fastest(_blas_kernel)
        p, b = self.python_share, self.blas_share
        factor = p * PY_REF_S / py + b * BLAS_REF_S / blas + (1.0 - p - b)
        self.points.append((py, blas, factor))
        return factor

    def timed(self, fn):
        """Run ``fn`` between two calibration points; returns (reference s, result)."""
        before = self.sample()
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        return wall * 0.5 * (before + self.sample()), result

    def summary(self) -> str:
        if not self.points:
            return "no calibration points"
        factors = sorted(p[2] for p in self.points)
        return (f"{len(factors)} calibration points, speed factor min {factors[0]:.3f} "
                f"median {factors[len(factors) // 2]:.3f} max {factors[-1]:.3f}")
