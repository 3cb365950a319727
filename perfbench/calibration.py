"""The machine's current speed, from a fixed reference computation.

The benchmark runs on a few cores of a shared host, whose speed drifts by
10-40% over tens of seconds to minutes, often for the whole of a run.  No
statistic taken over the passes of one run removes such a slowdown.  So
the worker times one round of a fixed computation before every case and
after the last one, and divides each case's time by the mean of the two
rounds around it.  Multiplied by `REFERENCE_S`, that gives the case's
time in reference seconds: seconds at the speed this machine had when one
round took `REFERENCE_S`.

A round mixes the kinds of work thinpart does, in about equal shares: a
sparse LU factorization (scipy's SuperLU, as in the Newton solves),
element-wise numpy arithmetic on 257x257 arrays (as in the element
kernels), and an interpreted Python loop over floats (as in the CLI, the
lattice routines and the hypothesis checks).  It calls nothing of
thinpart, so a change to thinpart cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# About the median seconds of one round on the machine this benchmark was
# written on (2 vCPUs of an Intel Xeon at 2.1 GHz, numpy 2.4.6, scipy
# 1.17.1), where runs measured 0.021-0.031 s.  It fixes the unit of every
# normalized time; changing it rescales them all.
REFERENCE_S = 0.025


def _laplacian(n: int) -> scipy.sparse.csc_matrix:
    ones = np.ones(n)
    t = scipy.sparse.diags([-ones[:-1], 4.0 * ones, -ones[:-1]], [-1, 0, 1])
    s = scipy.sparse.diags([-ones[:-1], -ones[:-1]], [-1, 1])
    eye = scipy.sparse.identity(n)
    return (scipy.sparse.kron(eye, t) + scipy.sparse.kron(s, eye)).tocsc()


class Calibration:
    def __init__(self) -> None:
        self.matrix = _laplacian(56)
        rng = np.random.default_rng(0)
        self.p = rng.standard_normal((257, 257))
        self.q = rng.standard_normal((257, 257))
        self.points = [(math.cos(0.1 * k), math.sin(0.1 * k)) for k in range(5000)]

    def _sparse(self) -> float:
        return float(scipy.sparse.linalg.splu(self.matrix).nnz)

    def _numpy(self) -> float:
        total = 0.0
        for _ in range(20):
            w = np.sqrt(1.0 + self.p * self.p + self.q * self.q)
            total += float((self.p / w).sum() + (self.q / w).sum())
        return total

    def _python(self) -> float:
        best = math.inf
        for a, b in self.points:
            for c, d in self.points[:3]:
                best = min(best, abs(a * d - b * c) + math.hypot(a - c, b - d))
        return best

    def round(self) -> float:
        """Seconds of one round."""
        start = time.perf_counter()
        self._sparse()
        self._numpy()
        self._python()
        return time.perf_counter() - start

    def rounds(self, count: int) -> float:
        """Median seconds of `count` rounds."""
        return statistics.median(self.round() for _ in range(count))
