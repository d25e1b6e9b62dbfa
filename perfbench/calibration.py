"""How fast the host runs right now, measured by a fixed kernel.

On a shared host, load from neighbouring machines slows every program
by up to a third for tens of seconds at a time, without showing up as
steal time.  The benchmark therefore samples this kernel between passes
and scales each pass's wall times to the kernel's reference speed:
a reported second is a second at ``REFERENCE_S`` per kernel sample.

The kernel mixes what the solvers do: sparse triangular solves of a 2-D
Laplacian, elementwise work on arrays larger than the last-level cache,
and a Python loop that formats floats.  It does not use ductflow, so a
change to the package cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Median kernel sample on a quiet 2-vCPU x86-64 host (numpy 2.4, scipy 1.17).
REFERENCE_S = 0.033

_GRID = 100
_ARRAY = 1_000_000
_REPEATS = 3


class Calibration:
    def __init__(self):
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.identity(_GRID)
        self._lu = splu((sp.kron(line, eye) + sp.kron(eye, line)).tocsc())
        rng = np.random.default_rng(0)
        self._rhs = rng.standard_normal(_GRID * _GRID)
        self._big = rng.standard_normal((2, _ARRAY))

    def _work(self) -> float:
        x = self._rhs
        for _ in range(8):
            x = self._lu.solve(x)
            x = x / np.abs(x).max()
        total = float(np.hypot(self._big[0], self._big[1]).sum())
        text = "".join(f"{float(v)!r}\n" for v in x[:4000])
        return total + len(text)

    def sample(self) -> float:
        """Median of a few timed kernel runs, in seconds."""
        times = []
        for _ in range(_REPEATS):
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        return statistics.median(times)
