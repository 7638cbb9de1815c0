"""A CPU clock that runs at the host's fast speed, whatever speed the CPU has now.

The benchmark was tuned on a shared 2-vCPU virtual machine whose CPUs switch
between a fast and a slow speed about 1.5x apart every few seconds, and
drift over minutes, from load outside the machine.  CPU time leaves out the
time the host takes the CPU away, but not these speed changes: one cold
game's CPU time varies 2x from try to try.

:class:`GaugedClock` samples the CPU's speed while the program runs.  Every
:data:`TICK_CPU_S` of CPU time a profiling timer interrupts the program and
times a fixed pure-Python loop, the gauge.  The CPU time spent until the
next tick is then scaled by how much longer the gauge took than
:data:`GAUGE_REFERENCE_S` (the median of the last few gauges, see
:class:`Speed`).  The gauge runs no repository code, so no change to the
program moves it; garbage collection is off while it runs, so the
program's heap cannot either.  On that machine gauging at every tick cut
the try-to-try spread of one game's time (first to third quartile) from
15-25 % to 8 %.

Work that runs in another process on another CPU, as ``repro serve`` does,
is gauged by :func:`gauge_process`: a child pinned to that CPU that times
the gauge whenever it is asked.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Iterator, Optional, Set

#: Iterations of the gauge's loop (about half a millisecond of CPU).
GAUGE_LOOPS = 5_000

#: CPU seconds the gauge takes in a fast spell of the machine the benchmark
#: was tuned on.  Gauged seconds read as CPU seconds of that machine in a
#: fast spell.
GAUGE_REFERENCE_S = 0.0005

#: CPU seconds between two gauges; the gauge then costs about 1 % of the run.
TICK_CPU_S = 0.05

#: The speed in force is the median of this many latest gauges, so one
#: stray reading does not carry into the figures; the speed itself changes
#: only every few seconds.
GAUGE_WINDOW = 5

#: Gauges a fresh :func:`gauge_process` times and throws away: its first
#: ones still pay for the interpreter's warm-up.
WARMUP_GAUGES = 20


def gauge() -> float:
    """Thread CPU seconds the gauge loop takes right now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        begin = time.thread_time()
        total, table = 0, {}
        for i in range(GAUGE_LOOPS):
            table[i & 255] = total
            total += i * 3 % 7
        return time.thread_time() - begin
    finally:
        if collecting:
            gc.enable()


class Speed:
    """Times a gauge on each call and returns the factor from CPU seconds to gauged seconds.

    The factor comes from the median of the :data:`GAUGE_WINDOW` latest
    gauges, so one stray reading does not carry into the figures.
    """

    def __init__(self, timer: Callable[[], float] = gauge) -> None:
        self._timer = timer
        self._recent: Any = collections.deque(maxlen=GAUGE_WINDOW)

    def __call__(self) -> float:
        self._recent.append(self._timer())
        return GAUGE_REFERENCE_S / statistics.median(self._recent)


class GaugedClock:
    """Gauged CPU seconds of the main thread, while the ``with`` block runs.

    Only the main thread is counted: the workloads that use it run the
    program on the main thread alone.  The gauges' own time is left out.
    """

    def __init__(self) -> None:
        self._gauged = 0.0
        self._ticks = 0
        self._last = 0.0
        self._scale = 1.0
        self._speed = Speed()
        self._previous: Any = None

    def _tick(self, *_: Any) -> None:
        # The interval that ends here is charged at the speed gauged when it
        # began, as now() has charged it so far, so the clock never jumps.
        self._gauged += (time.thread_time() - self._last) * self._scale
        self._scale = self._speed()
        self._last = time.thread_time()
        self._ticks += 1

    def now(self) -> float:
        """Gauged seconds so far; the time since the last tick at that tick's speed."""
        while True:
            ticks = self._ticks
            value = self._gauged + (time.thread_time() - self._last) * self._scale
            if ticks == self._ticks:  # no tick ran halfway through
                return value

    def __enter__(self) -> "GaugedClock":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._scale = self._speed()
        self._last = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)
        return self

    def __exit__(self, *_: object) -> Optional[bool]:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return None


@contextlib.contextmanager
def gauge_process(cpus: Optional[Set[int]]) -> Iterator[Callable[[], float]]:
    """Yield a function that times the gauge in a child pinned to ``cpus``.

    The child lives until the block exits, however it exits.
    """
    child = subprocess.Popen(
        [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    assert child.stdin is not None and child.stdout is not None
    stdin, stdout = child.stdin, child.stdout

    def ask() -> float:
        stdin.write(b"\n")
        stdin.flush()
        return float(stdout.readline())

    try:
        if cpus:
            os.sched_setaffinity(child.pid, cpus)
        for _ in range(WARMUP_GAUGES):
            ask()
        yield ask
    finally:
        stdin.close()  # end of input ends the child's loop
        try:
            child.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait(timeout=10.0)
        stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin.buffer:  # one gauge per line asked
        sys.stdout.write(f"{gauge()!r}\n")
        sys.stdout.flush()
