"""The machine's speed at a moment, from a fixed pure-Python loop.

The shared machine the benchmark runs on changes speed by up to 1.8x,
within seconds and from one minute to the next, and every op slows with
it.  Each timing is therefore scaled by REFERENCE_S over the time of this
loop measured just before and just after it: a timing reads as it would on
a machine where the loop takes REFERENCE_S.
"""

import time

REFERENCE_S = 0.0004   # about the loop's time here when the machine is fast


def reference_seconds() -> float:
    """Time of the reference loop, the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(5000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a timing taken between two reference times into
    one at the reference speed."""
    return 2 * REFERENCE_S / (before + after)
