"""Host-speed probe: timings of the program scaled to a fixed host speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed drifts
by up to 2x within seconds, and CPU time drifts with it.  Raw wall times of
the same code then spread further between runs than any useful bound.

While a timed command runs, an interval timer interrupts it every
``PERIOD_S`` of wall time and the signal handler times one run of the
probe, a fixed step of car-following code.  The probe's time says how fast
the host runs Python code at that moment.  The program's time is the command's wall time
minus the probes' time; its reference time is that, scaled by
``REFERENCE_PROBE_S`` over the mean probe time: the wall time it would have
taken on a host that runs the probe in ``REFERENCE_PROBE_S``.  A program
that does less work gets a smaller reference time; a host that slows down
slows the program and the probe alike, and the ratio stays.

On a 2 vCPU VM with Python 3.11.7, over ten 30 s runs of each workload
with ten seeds, the run medians of the pass wall time spread 16-20% of
their median (distance between the quartiles) and those of the reference
time 3-6%.  The probe still slows a little more than the engine when the
host slows, so reference times read slightly lower on a slow host.
"""

from __future__ import annotations

import random
import signal
import statistics
from array import array
from time import perf_counter

PERIOD_S = 0.01  # wall time between probes; a probe takes about 0.15-0.3 ms
# The probe's time on an unloaded 2 vCPU VM, Python 3.11.7, rounded; it
# only fixes the scale of reference times.
REFERENCE_PROBE_S = 0.00015


class _Car:
    __slots__ = ("position", "speed", "route")

    def __init__(self, position: float, speed: float, route: str) -> None:
        self.position = position
        self.speed = speed
        self.route = route

    def accel(self, gap: float) -> float:
        if gap < 2.0:
            return -3.0
        if self.speed < 10.0:
            return 1.0 if gap > 20.0 else 0.3
        return -0.5 if gap < 15.0 else 0.0


_rng = random.Random(3)
_LANES = [
    sorted((_Car(_rng.random() * 1000.0, _rng.random() * 15.0, f"n{_rng.randrange(9)}")
            for _ in range(25)), key=lambda car: car.position)
    for _ in range(12)
]


def probe() -> float:
    """One car-following step over 300 cars in 12 lanes, on fixed data:
    attribute reads, method calls, branches and dict updates, the kind of
    work the engine's step does.  A probe like this tracked the engine's
    slow-downs more closely than a loop of plain float arithmetic."""
    stopped: dict[str, int] = {}
    total = 0.0
    for lane in _LANES:
        lead = None
        for car in reversed(lane):
            gap = lead.position - car.position - 5.0 if lead is not None else 1e9
            speed = car.speed + car.accel(gap) * 0.5
            if speed < 0.1:
                stopped[car.route] = stopped.get(car.route, 0) + 1
            total += min(15.0, max(0.0, speed))
            lead = car
    return total


class HostSpeed:
    """Times the probe every ``PERIOD_S`` while entered, in the main thread.

    Forked worker processes inherit the handler but not the timer, so only
    this process runs probes.
    """

    def __init__(self) -> None:
        self.samples = array("d")
        self._previous = None
        for _ in range(20):  # let the interpreter specialise the loop
            probe()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.sample(1)

    def sample(self, n: int) -> None:
        """Time ``n`` probes now."""
        for _ in range(n):
            t0 = perf_counter()
            probe()
            self.samples.append(perf_counter() - t0)

    def clear(self) -> None:
        self.samples = array("d")

    def probe_s(self) -> float:
        """The mean probe time since the last ``clear``."""
        if not self.samples:
            raise RuntimeError("no host-speed probe ran; the timed span was too short")
        return statistics.fmean(self.samples)

    def probed_s(self) -> float:
        """The time spent in probes since the last ``clear``."""
        return sum(self.samples)

    def reference_s(self, program_s: float) -> float:
        """``program_s``, timed alongside the probes since the last
        ``clear``, scaled to the reference host speed."""
        return program_s * REFERENCE_PROBE_S / self.probe_s()
