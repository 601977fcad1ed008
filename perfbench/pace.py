"""The machine's pace: a fixed reference kernel timed between units of work.

The benchmark runs on shared machines whose speed moves by a third or more
over seconds and minutes.  So each workload times a fixed kernel, in the
program's style and at a matrix size near its own, before every few
operations, and the end-to-end timings are reported at the reference
pace: a time measured while the kernel took ``k`` seconds is scaled by
``reference_s / k``, ``k`` being the median of the kernel times nearest
to it.

The kernel uses numpy only, never pqinv, so a change to the program moves
the scaled timings exactly as it moves the measured ones.  The
decompositions are bound at import, before a traced run wraps
``numpy.linalg``, and a traced run takes no pace at all.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_svd = np.linalg.svd
_eigvals = np.linalg.eigvals
_solve = np.linalg.solve
_norm = np.linalg.norm

NEAREST = 4  # kernel times a scaled timing takes the median of


class Kernel:
    """The small steps pqinv is made of, on fixed complex matrices.

    For each matrix: an SVD, the numerical rank and the projector onto the
    range, a residual norm and an ``allclose``, a stacked copy, a shifted
    solve and the eigenvalues.  A kernel in the program's own style tracks
    the machine's pace for it far better than an interpreter loop or a
    JSON round trip does (see perfbench/README.md).
    """

    def __init__(self, reference_s: float, sizes: list[int]):
        self.reference_s = reference_s
        rng = np.random.default_rng(20260101)  # fixed: the kernel never depends on the seed
        self.matrices = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in sizes]

    def __call__(self) -> None:
        for a in self.matrices:
            u, s, _vh = _svd(a)
            rank = int(np.sum(s > 1e-10 * s[0]))
            q = u[:, :rank]
            proj = q @ q.conj().T
            _norm(proj @ a - a)
            np.allclose(proj @ proj, proj)
            np.concatenate([a, proj], axis=1)
            _solve(a + 3.0 * np.eye(a.shape[0]), a[:, 0])
            _eigvals(a)


class Pace:
    """Kernel times of one run, and the scale they give at any moment."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        kernel()  # first calls load LAPACK and fill caches; not a sample
        self.times: list[float] = []  # midpoint of each kernel run, ascending
        self.seconds: list[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.seconds.append(end - start)

    def scale(self, at: float) -> float:
        """reference_s over the median of the NEAREST kernel times to ``at``."""
        i = bisect.bisect(self.times, at)
        window = range(max(0, i - NEAREST), min(len(self.times), i + NEAREST))
        nearest = sorted(window, key=lambda k: abs(self.times[k] - at))[:NEAREST]
        return self.kernel.reference_s / statistics.median(self.seconds[k] for k in nearest)

    def summary(self) -> dict:
        return {
            "samples": len(self.seconds),
            "reference_ms": 1e3 * self.kernel.reference_s,
            "median_ms": 1e3 * statistics.median(self.seconds),
            "min_ms": 1e3 * min(self.seconds),
            "max_ms": 1e3 * max(self.seconds),
        }
