"""Running one op: per-op deadline, timing and the output check."""

from __future__ import annotations

import gc
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import speed
from workloads import Op, Workload


class DeadlineExceeded(BaseException):
    """Raised by the timer signal; a BaseException so that no handler in
    the library under test can swallow it."""


_TIMERS = {"cpu": (signal.ITIMER_PROF, signal.SIGPROF, time.process_time),
           "wall": (signal.ITIMER_REAL, signal.SIGALRM, time.perf_counter)}
# How often, in the deadline's clock, an op with a memory budget has its
# resident size checked.
MEMORY_CHECK_S = 0.01
_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """Resident size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


def memory_cap(workload: Workload) -> int | None:
    """The resident size at which the workload's ops run out of memory:
    its budget above the size of this process when its first op ran.  It
    is fixed for the run, so that every run stops a blow-up at the same
    size."""
    if workload.memory_mb is None:
        return None
    if workload.memory_cap is None:
        workload.memory_cap = resident_bytes() + int(workload.memory_mb * 2**20)
    return workload.memory_cap


@contextmanager
def deadline(clock: str, seconds: float, cap: int | None = None):
    """Raise DeadlineExceeded in this process once ``seconds`` of CPU time
    (``clock="cpu"``) or wall time (``clock="wall"``) have passed, or, with
    ``cap``, once a check finds the resident size above ``cap`` bytes.  The
    exception comes from a signal handler, between two bytecodes, so the
    library never sees an allocation fail."""
    which, sig, now = _TIMERS[clock]
    end = now() + seconds

    def expire(signum, frame):
        if cap is not None and resident_bytes() > cap:
            raise DeadlineExceeded("memory")
        if cap is None or now() >= end:
            raise DeadlineExceeded("time")

    previous = signal.signal(sig, expire)
    if cap is None:
        signal.setitimer(which, seconds)
    else:
        signal.setitimer(which, MEMORY_CHECK_S, MEMORY_CHECK_S)
    try:
        yield
    finally:
        signal.setitimer(which, 0)
        signal.signal(sig, previous)


@dataclass
class Execution:
    op_id: str
    seconds: float
    failure: str | None = None   # "wrong_output", "error" or "deadline"
    reason: str | None = None
    scale: float = 1.0           # turns ``seconds`` into reference-speed seconds

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def execute(op: Op, workload: Workload, deadline_scale: float = 1.0) -> Execution:
    """Run ``op`` once under the workload's deadline and memory budget,
    between two measurements of the machine's speed, and check its output
    outside the timed region.  Running out of time or memory is a missed
    deadline."""
    seconds = workload.deadline_s * deadline_scale
    failure = reason = out = None
    before = speed.reference_seconds()
    start = time.perf_counter()
    # The cyclic garbage collector is off while the op runs, as in timeit:
    # which op would pay for a collection depends on the op order.  It runs
    # again on the next allocation after the op.
    gc.disable()
    try:
        with deadline(workload.clock, seconds, memory_cap(workload)):
            start = time.perf_counter()
            out = op.run()
    except DeadlineExceeded as exc:
        failure = "deadline"
        reason = (f"over its memory budget of {workload.memory_mb} MB"
                  if exc.args == ("memory",)
                  else f"over {seconds} s of {workload.clock} time")
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failure, reason = "error", f"{type(exc).__name__}: {exc}"[:200]
    finally:
        elapsed = time.perf_counter() - start
        gc.enable()
    factor = speed.scale(before, speed.reference_seconds())
    if failure is None:
        reason = op.check(out)
        failure = "wrong_output" if reason else None
    return Execution(op.id, elapsed, failure, reason, factor)
