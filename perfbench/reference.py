"""A fixed reference kernel that measures the host's current speed.

On a shared virtual machine the CPU speed moves between phases (up to about
2x, lasting from seconds to minutes), and every task slows with it. The
worker runs this kernel before and after each timed call and divides the
call's time by the mean of the two kernel times, so that a slow phase
divides out of ``setup_s`` and ``wall_s``. The kernel never calls ``riemstats``, so no
change to the library moves it; it mixes the kinds of work the workloads do:
a Python loop over small matrices with a LAPACK call each, a vectorized pass
over a larger array, and plain interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's typical run time between two benchmark calls, in seconds, on
# the machine the benchmark was defined on (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4, one BLAS thread): 2.6 ms in its fast phases, 3.7-4.2 ms
# as a run's median. ``REF_S * call_s / kernel_s`` is a call's time in
# seconds at that speed; it is a fixed constant, so any change to the
# library moves the normalized times as it moves the raw ones.
REF_S = 0.004


class Reference:
    """Callable that runs the kernel once and returns its run time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(20040467)
        raw = rng.standard_normal((48, 4, 4))
        self.small = raw @ np.swapaxes(raw, -1, -2) + 4.0 * np.eye(4)
        self.large = rng.standard_normal((40_000, 6))
        self.value = 0.0
        self.total_s = 0.0  # time spent in all runs so far

    def __call__(self):
        start = time.perf_counter()
        acc = 0.0
        for mat in self.small:  # per-matrix loop: interpreter plus small LAPACK calls
            w, v = np.linalg.eigh(mat)
            acc += float(((v * np.log(w)) @ v.T)[0, 0])
        norms = np.sqrt(np.einsum("ij,ij->i", self.large, self.large))
        acc += float(np.sum(np.cos(norms) * self.large[:, 0]))
        counts = {}
        for i in range(4000):
            counts[i % 17] = counts.get(i % 17, 0) + i
        self.value = acc + counts[3]  # kept, so that no step is dead code
        elapsed = time.perf_counter() - start
        self.total_s += elapsed
        return elapsed
