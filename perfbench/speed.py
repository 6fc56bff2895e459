"""A speed probe that divides a shared CPU's slow spells out of the timings.

On a shared host the CPU a pass runs on slows down, for a second to
minutes at a time, by up to ~2x: another tenant loads the sibling hardware
thread.  No probe on another CPU, or between passes, tracks that (each CPU
is slowed on its own), but one on the same CPU at the same time does:
``run.py`` pins its own process and every pass to one CPU, and a thread of
``run.py`` times a fixed pure-Python chunk every ``PERIOD_S`` seconds while
the passes run.  A time measured over a window is divided by the window's
slowdown: the mean chunk time in it over ``REFERENCE_CHUNK_S``, to the
power ``EXPONENT``.  The times are thus given at the speed at which a chunk
takes that long, about the uncontended speed of the 2-vCPU Xeon host the
benchmark was tuned on.  The exponent, because a loaded CPU slows the
workloads more than the probe: over 20 runs of each workload, the log of
pass time against the log of the probe's ratio had slope 1.39 (fig13-dm),
1.29 (clifford-ga) and 1.38 (service-jobs).  A fixed reference, because
a run's own fastest chunks are no steady reference: in a run that falls
wholly in a loaded phase they are ~1.3x slower.  The chunk is integer arithmetic on a few small objects, so the
caches the workload leaves behind do not slow it: a chunk of lookups in a
~1 MB table was slowed ~1.5x more beside the multi-process workloads than
beside the single-process one.  The probe takes ~2% of the CPU.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

PERIOD_S = 0.02
REFERENCE_CHUNK_S = 0.00032
EXPONENT = 1.4
#: A chunk this many times the reference was descheduled, not slowed.
DESCHEDULED = 4.0


def _chunk() -> int:
    total = 0
    for value in range(5000):
        total += value * value % 7
    return total


class SpeedProbe:
    """Times ``_chunk`` on the calling thread's CPU until the block exits."""

    def __init__(self):
        self.samples = []  # (start, duration), in perf_counter seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.is_set():
            start = time.perf_counter()
            _chunk()
            self.samples.append((start, time.perf_counter() - start))
            self._stop.wait(PERIOD_S)

    def fast_chunk(self) -> float:
        """The run's 2nd-percentile chunk time, for the record."""
        durations = sorted(duration for _, duration in self.samples)
        return durations[int(0.02 * (len(durations) - 1))]

    def slowdown(self, start: float, end: float) -> float:
        """(Mean chunk time in ``[start, end]`` / ``REFERENCE_CHUNK_S``) **
        ``EXPONENT``; the windows measured (passes and set-ups) hold dozens
        of chunks."""
        samples = [s for s in self.samples
                   if s[1] < DESCHEDULED * REFERENCE_CHUNK_S]
        starts = [s[0] for s in samples]
        low = bisect.bisect_left(starts, start)
        high = bisect.bisect_right(starts, end)
        return (statistics.fmean(d for _, d in samples[low:high])
                / REFERENCE_CHUNK_S) ** EXPONENT
