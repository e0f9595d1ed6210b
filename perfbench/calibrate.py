"""Machine-speed reference for scaling the end-to-end timings.

The machines this benchmark runs on are shared: over a whole 30-second run
every call can be 20-40% slower than in the run before, and the slowdown
comes and goes within a run too.  `kernel_seconds` times a fixed piece of
work that does not touch yring but is made of the same operations: the
benchmark's own oracle solving a fixed general ring at twelve wavenumbers.
measure() runs it every INTERVAL_S between program calls, and each call is
scaled by REFERENCE_S over the mean of the kernel runs just before and just
after it (`factor`).  On a loaded 2-core VM, over ten 18-second processes,
median sweep, query and search times scaled call by call this way varied
by 1.2-1.6% between processes, against 11-13% unscaled and 3.5-5% when
scaled by the median kernel time of the whole process.

A change that slows the whole interpreter (a background thread, a global
hook) also slows the kernel, so the scaled timings would not show it; the
unscaled timings in the report would.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from oracle import RingOracle

#: Median kernel time on the machine that defined the benchmark (2-core Xeon
#: VM, Python 3.11.7, numpy 2.4.6) when it was lightly loaded.
REFERENCE_S = 0.9e-3
#: Seconds between kernel runs during a measurement.
INTERVAL_S = 0.05


class General:
    """Mode marker: the oracle reads the mode's class name and its right node."""

    def __init__(self, right):
        self.right = right


def _node(theta, alpha, beta, gamma, delta, a, b, L0):
    return SimpleNamespace(theta=theta, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                           a=a, b=b, L0=L0)


_RING = RingOracle(SimpleNamespace(
    xi1=1.3, xi2=0.2,
    left=_node((0.9, 2.4, 4.1), 0.35, 1.1, 2.7, 0.6, 4.2, 1.9, 0.8),
    mode=General(_node((1.6, 3.3, 5.2), 2.1, 0.45, 5.5, 1.25, 0.7, 3.8, 1.4)),
))
_K = [0.7 + 8.6 * i / 11 for i in range(12)]


def kernel_seconds() -> float:
    """Time twelve oracle ring solves."""
    t0 = time.perf_counter()
    for k in _K:
        amps, _ = _RING.solve(k)
    dt = time.perf_counter() - t0
    if amps[0] != amps[0]:  # consume the result so the loop cannot be skipped
        raise ArithmeticError("reference kernel produced NaN")
    return dt


def factor(kernels: list[float], index: int) -> float:
    """Factor that turns a call made after kernel run `index` into reference speed."""
    around = kernels[max(index, 0):index + 2]
    return REFERENCE_S * len(around) / sum(around)
