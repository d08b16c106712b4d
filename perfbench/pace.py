"""Host-speed correction for end-to-end timings.

The benchmark runs on a few vCPUs of a shared host whose speed wanders by
up to 1.8x within seconds: a fixed pure-Python loop takes 18 ms one second
and 33 ms a few seconds later.  Medians over a run cannot remove a change
that lasts longer than the run, so the same code measured twice disagrees
by more than any useful bound.

:class:`Pace` interleaves a short fixed probe with the timed work: a
``SIGALRM`` timer runs it every :data:`INTERVAL_S` of wall time, between
bytecodes of whatever the benchmark is doing, and each repetition also
probes at its start and end.  Time between two probes is scaled by
:data:`REFERENCE_PROBE_S` over the mean of their probe times, raised to
:data:`ELASTICITY`, and time spent inside probes is dropped.  A timing
therefore reads as the seconds the work would have taken on a host where
the probe takes :data:`REFERENCE_PROBE_S`.  The probe shares no code with
the program under test, so a change to the program moves the corrected
timings as it moves raw ones.

A call that runs longer than the interval without returning to Python (a
long numpy operation, an ``fsync``) is probed only when it returns, so its
time is scaled by the speed on either side of it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

#: Wall time between two probes.
INTERVAL_S = 0.05
#: Probe time that defines the reference speed (about the probe's median
#: reading on a 2.1 GHz Xeon vCPU of a shared host).
REFERENCE_PROBE_S = 0.00055
#: How the program's time follows the probe's.  Over 5 minutes of repeated
#: identical chunks of the sweep, of batched and per-event ingest and of SLO
#: admission on a 2-vCPU Xeon guest, the 10-second medians of chunk time
#: against probe time (probe time ranging 2.0x) fit log-log slopes of
#: 0.76-0.88 with correlation 0.96-0.98.  Scaled by the probe ratio to this
#: power, the chunk times' spread fell from 15-18 % to 4-5.5 % (sd/mean).
#: A cache-resident arithmetic loop and a walk over a 9 MB list tracked
#: the program less closely (correlation 0.94-0.97).
ELASTICITY = 0.85
#: A probe reading is the fastest of this many runs of the probe loop.
PROBE_RUNS = 3

_clock = time.perf_counter
#: 8192 int keys and values; a dict holding only ints is not tracked by the
#: garbage collector, so the probe's table costs the program's collections
#: nothing.
_TABLE = {i: i for i in range(8192)}


def _probe_loop() -> int:
    """Fixed interpreter work: a linear congruential walk over :data:`_TABLE`,
    reading and rewriting each entry it lands on.

    Like the program, it hashes, looks up and stores through a table larger
    than the first-level caches, so it pays for cache contention and not
    only for arithmetic.  It allocates no container, so it neither triggers
    nor pays for a garbage collection of the work it interrupts.
    """
    table = _TABLE
    acc = 0
    k = 1
    for i in range(1200):
        k = (k * 1103515245 + 12345) & 8191
        acc += table[k] & 7
        table[k] = (table[k] + i) & 8191
    return acc


class Pace:
    """Probe log of one run, and the mapping from wall to corrected time.

    Without :meth:`start` it probes only when asked, as the repetitions do
    at their ends.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.readings: list[float] = []
        self._cum: list[float] = []
        self._running = False
        self._probing = False

    # -- probing ----------------------------------------------------------

    def probe(self) -> None:
        """Take one reading now."""
        if self._probing:  # the timer fired inside a probe
            return
        self._probing = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = _clock()
            best = float("inf")
            for _ in range(PROBE_RUNS):
                t0 = _clock()
                _probe_loop()
                best = min(best, _clock() - t0)
            end = _clock()
            self.starts.append(start)
            self.ends.append(end)
            self.readings.append(best)
        finally:
            if collecting:
                gc.enable()
            self._probing = False

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.probe()

    def start(self) -> None:
        """Probe now and then every :data:`INTERVAL_S` until :meth:`stop`."""
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
            self.probe()

    # -- mapping ----------------------------------------------------------

    def _factor(self, i: int) -> float:
        """Scale for wall time between probe ``i`` and probe ``i + 1``."""
        readings = self.readings
        mean = (readings[i] + readings[min(i + 1, len(readings) - 1)]) / 2
        return (REFERENCE_PROBE_S / mean) ** ELASTICITY

    def at(self, t: float) -> float:
        """Corrected time coordinate of the wall-clock instant ``t``.

        ``t`` must lie before the latest probe's end, so that a probe
        brackets it on both sides.
        """
        ends = self.ends
        while len(self._cum) < len(ends):
            j = len(self._cum)
            if j == 0:
                self._cum.append(0.0)
            else:
                gap = (self.starts[j] - ends[j - 1]) * self._factor(j - 1)
                self._cum.append(self._cum[j - 1] + gap)
        i = max(0, bisect.bisect_right(ends, t) - 1)
        return self._cum[i] + (t - ends[i]) * self._factor(i)

    def span(self, t0: float, t1: float) -> float:
        """Corrected seconds between two wall-clock instants."""
        return self.at(t1) - self.at(t0)

    def probe_s(self, t0: float, t1: float) -> float:
        """Wall seconds spent in probes between two instants."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

