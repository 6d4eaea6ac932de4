"""The host's speed, sampled while the program runs, and times scaled by it.

The benchmark shares a few cores of a virtual machine with other guests.
How fast those cores run changes from one second to the next and drifts
for minutes at a time: the same hc-table call can take anywhere from 1x
to 2x its fastest time, with the process's CPU time in step and almost no
steal time.  Wall or CPU time alone then measures the host as much as the
program.

A probe is a fixed loop of plain Python bytecode (integer arithmetic and
small dict stores) that uses nothing from hcpoly, so that a change to the
program cannot move it.  While an operation runs, an interval timer on
the process's CPU time (ITIMER_PROF) fires every SAMPLE_PERIOD_S and its
handler runs one probe; a few more probes run right after the operation.
The mean probe time over an operation says how slow the host was while it
ran.  The operation's own time (its wall time minus the probes inside it)
is then scaled by REFERENCE_PROBE_S / that mean: the seconds it would
have taken on a host where one probe takes REFERENCE_PROBE_S.  A program
that does less work reads lower, whatever the host's speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

PROBE_ITERATIONS = 2000
# one probe's time on the reference host (a 2-vCPU Intel Xeon VM), near the fastest it ran
REFERENCE_PROBE_S = 430e-6
# process CPU time between two probes while an operation runs
SAMPLE_PERIOD_S = 0.01
# probes after every operation, so that even the shortest one has samples
PROBES_AFTER = 3


# the probe's dict, made once: a probe allocates no object that the garbage
# collector counts, so it cannot move the program's collections or its peak memory
_TABLE: dict[int, int] = {}


def probe() -> int:
    table = _TABLE
    x = 1
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) % 1000003
        table[(i & 63) << 3 | (x & 7)] = x
    return len(table)


def timed_probes(count: int) -> list[float]:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return times


@dataclass(frozen=True)
class Timing:
    """One operation's time, raw and scaled to the reference host."""

    wall: float  # raw wall time, probes included
    own_wall: float  # wall time less the probes that ran inside it
    own_cpu: float  # process CPU time less those probes
    probe_mean: float  # mean probe time during and right after the operation

    @property
    def factor(self) -> float:
        return REFERENCE_PROBE_S / self.probe_mean

    @property
    def scaled_wall(self) -> float:
        return self.own_wall * self.factor

    @property
    def scaled_cpu(self) -> float:
        return self.own_cpu * self.factor


class SpeedSampler:
    """Times a call while probing the host's speed from a SIGPROF handler."""

    def __init__(self) -> None:
        self._inside: list[float] = []
        signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self._inside.append(time.perf_counter() - start)

    def time(self, call) -> tuple[object, Timing]:
        """Run call() and return its result with its Timing."""
        self._inside = []
        start, cpu_start = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        inside = self._inside
        spent = sum(inside)
        samples = inside + timed_probes(PROBES_AFTER)
        return result, Timing(wall, wall - spent, cpu - spent, statistics.fmean(samples))


def scaled(seconds: float, probe_times: list[float]) -> float:
    """Seconds measured while probes took probe_times, scaled to the reference host."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probe_times)
