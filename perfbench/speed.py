"""Timings on one scale, however fast the shared machine runs at the time.

The benchmark's machine is a share of a host whose other tenants slow it down
by up to 2x, for milliseconds or for minutes at a time, with the process on
the CPU throughout (no steal time shows).  A timing taken while the host is
busy is therefore not comparable with one taken while it is calm, and no
statistic over the passes of one run fixes that when the whole run falls in a
busy stretch.

:class:`SpeedProbe` samples the machine's speed during the work it times:
every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs :func:`probe`, a
fixed exact-arithmetic computation, and times it.  The handler runs between
the program's bytecodes, so the samples are spread evenly over the timed
work's wall time and see the same busy and calm stretches it does.  The
result is reported in *reference seconds*:

    reference_s = (wall time - probe time) * mean speed
    mean speed  = mean over samples of REFERENCE_PROBE_S / probe time

i.e. the time the work would have taken on the machine running at the
probe's reference speed.  Speeds, not probe times, are averaged: the work
done in a stretch is its length times the speed there.  On a calm machine
the two times agree.  The probe is plain Python, with the collector paused
while it runs, so it does not depend on how much the program holds in
memory, and this module imports nothing outside the standard library, so it
can time the imports too.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# A tick every 10 ms of wall time; one probe takes 0.2-0.4 ms, so the probe
# adds 2-4% to a timed pass and a one-second pass gets about 100 samples.
INTERVAL_S = 0.010
# probe()'s duration on the reference machine when its host is calm: the
# fast mode (10th percentile) of 10,870 samples on a shared 2-core Xeon VM,
# Python 3.11.  It only fixes the scale: it cancels out of every comparison
# of two runs on one machine.
REFERENCE_PROBE_S = 0.000211


def probe() -> Fraction:
    """The fixed computation whose duration measures the machine's speed."""
    total = Fraction(0)
    for i in range(1, 81):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Context manager: times the work inside it and samples the machine's speed.

    One probe runs on entry and one on exit, outside the timed window, so
    there are always samples; the rest run from the timer while the work runs
    and their time is taken out of the work's.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.work_s = self.wall_s - sum(self.samples[1:])
        self._tick()

    def _on_alarm(self, signum, frame) -> None:
        self._tick()

    def _tick(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe()
        self.samples.append(perf_counter() - t0)
        if was_enabled:
            gc.enable()

    @property
    def speed(self) -> float:
        """The machine's mean speed over the samples: 1 when the host is calm."""
        return statistics.fmean(REFERENCE_PROBE_S / s for s in self.samples)

    @property
    def reference_s(self) -> float:
        """The work's time in reference seconds."""
        return self.work_s * self.speed
