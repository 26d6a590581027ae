"""Timings scaled to a reference machine speed.

On a shared host the CPU's speed per thread-second drifts: a fixed
pure-Python loop takes anywhere from 0.8x to 1.6x its usual CPU time
within minutes, and a 40 s optimize moves by a third between runs while
every work counter repeats exactly.  A :class:`SpeedSampler` measures
that speed while a timed section runs, and :attr:`SpeedSampler.scale`
turns the section's wall times into seconds at a fixed reference speed.

Every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs one *tick*
(a fixed dict/list/integer kernel, the kind of code the optimizer
spends its time in) on the main thread and records the tick's thread
CPU time.  CPU time, not wall time, so a tick that is descheduled
behind the program's own pool workers still reads the speed of the core
it ran on.  The section's speed is the mean of 1/tick over its samples:
the average rate at which the machine did work over the section, which
is what divides out of the section's wall time.  The ticks' own wall
time is subtracted.

Ticks must be spread over the section: scaled by 50 ticks run back to
back just before and after it, serve passes spread six times as wide as
scaled by their own spread ticks.  A set-up is too short for that, so
set-ups are sampled as a group (``run.SETUP_SAMPLES``).

The kernel is the benchmark's own code and never the program's, so a
change to the program cannot move the reference.
"""

from __future__ import annotations

import signal
import time
from typing import List

INTERVAL_S = 0.1
"""Wall time between ticks inside a section."""

REFERENCE_TICK_S = 0.0014
"""Thread CPU time of one tick at the reference speed.

Fixed near the mean tick time of a two-core cloud VM, so scaled seconds
read close to wall seconds there; it only sets the scale's unit."""


def tick() -> float:
    """Run the calibration kernel once; return its thread CPU time."""
    start = time.thread_time()
    table: dict = {}
    row = [0] * 64
    acc = 0
    for rep in range(2):
        for i in range(2000):
            key = (i * 2654435761 + rep) & 1023
            table[key] = table.get(key, 0) + 1
            row[i & 63] ^= key
            acc += len(table) if key & 3 else row[(i >> 2) & 63] & 7
    return time.thread_time() - start


class SpeedSampler:
    """Sample machine speed over a ``with`` block (main thread only).

    The block must let the main thread run Python code now and then (a
    blocking wait should poll with a timeout), or its ticks are deferred
    to the end of the wait.
    """

    def __init__(self) -> None:
        self.ticks: List[float] = []
        self.spent_s = 0.0
        self.span_s = 0.0
        self._start = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append(tick())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.span_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.ticks:  # shorter than one interval
            self.ticks.append(tick())

    @property
    def speed(self) -> float:
        """Mean speed over the section, relative to the reference."""
        return REFERENCE_TICK_S * sum(1.0 / t for t in self.ticks) / len(
            self.ticks
        )

    @property
    def scale(self) -> float:
        """Factor from a wall time inside the section to reference seconds.

        The ticks took ``spent_s`` of the section's ``span_s``; a wall
        time is shortened by that share, then multiplied by the speed.
        """
        active = 1.0 - self.spent_s / self.span_s if self.span_s > 0 else 1.0
        return active * self.speed
