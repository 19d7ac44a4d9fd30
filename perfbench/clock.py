"""CPU time scaled by the speed the machine had while it was spent.

On a shared virtual machine the processor's speed is not constant: the
same pure-Python work takes up to ~1.6x longer for seconds at a time,
read on the wall clock or on the CPU clock alike (the host decides it,
not the process).  A run of tens of seconds reads whatever mix of states
it met, and two runs of the same code disagree by more than a program
change worth measuring.

`WorkClock` measures that speed under the work: every `PERIOD_S` of the
process's CPU time a profiling signal runs a small reference kernel
(exact rational arithmetic, like nashforge's own) and records how long it
took.  `scaled(t0, t1)` turns the CPU seconds between two readings of
`now()` into reference seconds: the CPU seconds, less the samples' own,
times `REF_S` over the kernel's mean time around that interval.  A
program that does half the work reads half the seconds; a machine that
slows down reads about the same.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02     # CPU seconds between two samples
REF_S = 0.0003      # the kernel's usual time under the work, on the 2-core VM the bounds were set on
MIN_SAMPLES = 8     # an interval holding fewer samples uses the nearest ones


def now() -> float:
    """CPU seconds of the calling thread, which does all of the work.

    Not `time.process_time`: while a process-wide CPU timer is armed,
    Linux updates the process clock only at scheduler ticks."""
    return time.thread_time()


def kernel() -> Fraction:
    """The reference work: a harmonic sum, whose growing denominators
    exercise big-integer gcd as nashforge's pivots do."""
    s = Fraction(0)
    for i in range(1, 80):
        s += Fraction(1, i)
    return s


class WorkClock:
    """Samples the machine's speed under the work; see the module doc."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, kernel s, handler s)
        self._previous = None

    def _sample(self, signum, frame):
        # the collector is held off, so that the kernel times the machine
        # and not the heap of the work it interrupted
        enabled = gc.isenabled()
        gc.disable()
        t0 = now()
        kernel()
        t1 = now()
        if enabled:
            gc.enable()
        self.samples.append((t0, t1 - t0, now() - t0))

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel seconds of the samples taken in [t0, t1], or of
        the MIN_SAMPLES nearest ones when it holds fewer."""
        inside = [k for t, k, _ in self.samples if t0 <= t <= t1]
        if len(inside) >= MIN_SAMPLES:
            return statistics.fmean(inside)
        middle = (t0 + t1) / 2
        nearest = sorted(self.samples, key=lambda row: abs(row[0] - middle))[:MIN_SAMPLES]
        return statistics.fmean(k for _, k, _ in nearest)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the work between the readings t0 and t1."""
        own = sum(h for t, _, h in self.samples if t0 <= t <= t1)
        return max(t1 - t0 - own, 0.0) * REF_S / self.kernel_s(t0, t1)

    def overhead(self) -> float:
        """Share of the CPU time the samples took."""
        if not self.samples:
            return 0.0
        return sum(h for _, _, h in self.samples) / (self.samples[-1][0] - self.samples[0][0]
                                                      + PERIOD_S)
