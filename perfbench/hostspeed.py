"""Host-speed reference that scales measured times.

On a shared machine the speed of one CPU changes by up to a half for
minutes at a time (other tenants' load), far more than the run-to-run
differences the benchmark must resolve, and longer than any affordable run.
While a `HostSpeed` is active, a timer signal interrupts the process every
PROBE_INTERVAL_S and times a fixed pure-Python reference, which calls no
isoprod code.  The time spent in these probes is subtracted from every
interval the benchmark measures, and each interval is scaled by

    REFERENCE_NOMINAL_S / median(reference times taken during it or in
                                 the PROBE_WINDOW_S before it)

so that it reads as on a host where the reference takes
REFERENCE_NOMINAL_S.  The unscaled times are kept in the run's record.
No thread is started: the probes run in the main thread between bytecodes.

The reference sorts a fixed list of 20,000 int pairs.  Of the references
tried (dict lookups of permutation tuples, mod-p matrix products, Fraction
sums, large-dict probes, sorting) it tracked the program's slowdowns best:
per-pass correlation of log times 0.92 on the tables and analyze workloads,
with slowdowns of 0.9 to 1.05 times the program's own, so scaling removes
most of the host's drift instead of over-correcting it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

# Median reference time on the 2-CPU x86-64 container (CPython 3.11) where
# the benchmark was defined.
REFERENCE_NOMINAL_S = 0.010
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW_S = 0.5

_rng = random.Random(0)
_REFERENCE_LIST = [(_rng.randrange(1000), _rng.randrange(1000)) for _ in range(20_000)]


def reference_s() -> float:
    start = perf_counter()
    sorted(_REFERENCE_LIST)
    return perf_counter() - start


class HostSpeed:
    """Periodic reference probes of one run, as a context manager."""

    def __init__(self):
        self.times: list[float] = []     # when each probe started
        self.samples: list[float] = []   # its reference time
        self.probe_s = 0.0               # total time spent probing
        self._previous = None

    def _probe(self, *_signal_args) -> None:
        start = perf_counter()
        self.samples.append(reference_s())
        self.times.append(start)
        self.probe_s += perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple[float, float]:
        """Start timing an interval; pass the result to `stop`."""
        return self.probe_s, perf_counter()

    def stop(self, started: tuple[float, float]) -> tuple[float, float]:
        """(seconds since `start` net of probe time, scale factor)."""
        end = perf_counter()
        probe_s, start = started
        return end - start - (self.probe_s - probe_s), self.factor(start, end)

    def factor(self, start: float, end: float) -> float:
        """Scale factor for the interval [start, end]."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end)
        around = self.samples[lo:hi] or self.samples[-1:]
        return REFERENCE_NOMINAL_S / statistics.median(around)
