"""A fixed kernel that times the host rather than the program.

The host this benchmark was tuned on runs in fast and slow phases that last
from seconds to minutes, and a whole run can fall into a slow one. The
kernel below is timed after every round of ops. Dividing an op's wall time
by the kernel's time next to it cancels much of the host's speed, and
multiplying by REFERENCE_S turns the ratio back into seconds. The kernel
uses numpy and Python the way crossbell does (small complex arrays,
reductions, per-element Python work) and calls nothing of crossbell, so no
change to the program moves it.
"""
from __future__ import annotations

import time

import numpy as np

# The kernel's fastest time on the tuning host, in seconds: the per-run
# fastest kernel time had a median of 3.2-3.4 ms on each workload.
REFERENCE_S = 3.3e-3
REPEATS = 3

_RNG = np.random.default_rng(0x5EED)
_V = _RNG.normal(size=4096) + 1j * _RNG.normal(size=4096)


def kernel() -> float:
    total = 0.0
    for _ in range(300):
        m = _V.reshape(16, 256)
        p = np.einsum("ij,ij->i", m.conj(), m)
        total += float(abs(np.vdot(_V[:16], p)))
    return total


def measure() -> float:
    """The kernel's fastest wall time over REPEATS calls, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
