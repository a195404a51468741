"""Machine-speed normalisation of measured times.

The benchmark runs on shared cores. Other tenants' work slows a core by up
to 2x, for seconds to minutes at a time, and that alone would spread the
same run's wall time by more than any bound worth having. While a pass runs,
``SpeedProbe`` times ``REPEAT`` runs of a fixed pure-Python loop (list,
tuple, generator, sort and dict work, in the style of the squanta hot paths)
from a SIGALRM handler every ``INTERVAL`` seconds. A measured interval is
then reported at reference speed: its time, less the probe's own time inside
it, times ``REF_LOOP_S / mean loop time`` over the samples within ``WINDOW``
of it. At reference speed one loop takes ``REF_LOOP_S``; the raw times stay
in the context line.
"""

import bisect
import gc
import signal
import statistics
from array import array
from time import perf_counter

INTERVAL = 0.1        # seconds between samples
REPEAT = 8            # loops per sample: about 2 ms, long enough to track
                      # the speed the workload sees better than one loop
WINDOW = 0.5          # samples this far either side of an interval count
REF_LOOP_S = 0.00025  # one loop's time at reference speed

_ROWS = [(i % 5, i % 3, i % 7) for i in range(40)]


def loop():
    """The fixed reference work: keep the rows no early row dominates,
    sort them and index them."""
    kept = []
    for r in _ROWS:
        if any(r != s and all(a <= b for a, b in zip(r, s)) for s in _ROWS[:6]):
            continue
        if r not in kept:
            kept.append(r)
    kept.sort(key=lambda r: (r[2], r))
    return {r: i for i, r in enumerate(kept)}


def loop_time():
    """Mean time of REPEAT loops, with the garbage collector held off so that
    a collection the workload's garbage is due does not land in a sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REPEAT):
            loop()
        return (perf_counter() - t0) / REPEAT
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the loop's time while started; scales intervals by it."""

    def __init__(self):
        self.at = array("d")   # sample start times (perf_counter)
        self.took = array("d")  # mean loop time of each sample
        self.spent = array("d")  # handler time of each sample
        self._old = None

    def _tick(self, signum, frame):
        self.at.append(perf_counter())
        self.took.append(loop_time())
        self.spent.append(perf_counter() - self.at[-1])

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _window(self, t0, t1):
        return (bisect.bisect_left(self.at, t0),
                bisect.bisect_right(self.at, t1))

    def factor(self, t0, t1):
        """REF_LOOP_S over the mean loop time in [t0, t1]."""
        lo, hi = self._window(t0, t1)
        if lo == hi:
            raise ValueError("no speed sample near the interval")
        return REF_LOOP_S / statistics.fmean(self.took[lo:hi])

    def own_time(self, t0, t1):
        """The probe's time spent inside [t0, t1]."""
        lo, hi = self._window(t0, t1)
        return sum(self.spent[lo:hi])

    def scaled(self, t0, t1):
        """Duration of [t0, t1] at reference speed, probe time excluded."""
        return ((t1 - t0 - self.own_time(t0, t1))
                * self.factor(t0 - WINDOW, t1 + WINDOW))


def scaled_subprocess_time(run):
    """Time `run()` (a child process) at reference speed, by the median loop
    time measured just before and just after it."""
    before = [loop_time() for _ in range(3)]
    t0 = perf_counter()
    run()
    took = perf_counter() - t0
    after = [loop_time() for _ in range(3)]
    return took * REF_LOOP_S / statistics.median(before + after)
