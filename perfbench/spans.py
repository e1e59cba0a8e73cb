"""In-memory spans recorded by the benchmark around calls into stratacert,
and the host-speed sampling that scales them.

A span is (name, tag, start, end, parent) plus the id of the run that made
it.  ``span`` always records: the benchmark's own end-to-end timings are
spans.  ``call`` records only when tracing is on; it wraps the per-graph
calls whose individual timing is needed only for per-layer numbers, so an
untraced run pays nothing for them.

Host speed.  On a shared host the same work can take twice as long from
one second to the next, which would swamp any change worth measuring.  So
while a pass runs, a timer signal interrupts it every SAMPLE_PERIOD_S and,
on the same thread, times a fixed piece of reference work (exact rational
arithmetic over a small dict: the kind of work stratacert does, none of
its code).  The time spent in those interruptions is taken out of every
span, and each span is scaled by REFERENCE_S over the mean reference time
sampled during it (widened by SAMPLE_WINDOW_S on each side).  A reported
second is therefore a second on a host where the reference work takes
REFERENCE_S.  A change to stratacert's speed moves the reported times one
for one; a change to the host's speed cancels out.
"""

import bisect
import gc
import json
import signal
import statistics
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

# the unit of the scaled times; the baseline host takes 0.7-2 ms for the
# reference work, about 1 ms in the median
REFERENCE_S = 0.001
SAMPLE_PERIOD_S = 0.05
SAMPLE_WINDOW_S = 0.3
BURST = 10  # samples taken back to back when sampling starts and stops


def reference_work() -> dict:
    table = {}
    for i in range(1, 250):
        key = (i % 97, i % 13)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, i % 89 + 1)
    return table


def reference_seconds() -> float:
    """One timing of the reference work, with the cyclic collector paused
    so that the heap the package built does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class _Span:
    __slots__ = ("_rec", "_name", "_tag", "_index", "_sampled")

    def __init__(self, rec, name, tag):
        self._rec = rec
        self._name = name
        self._tag = tag

    def __enter__(self):
        rec = self._rec
        parent = rec._open[-1] if rec._open else None
        self._index = len(rec.spans)
        rec.spans.append([self._name, self._tag, 0.0, 0.0, parent, 0.0])
        rec._open.append(self._index)
        self._sampled = rec.sampling_s
        rec.spans[self._index][2] = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        rec = self._rec
        span = rec.spans[self._index]
        span[3] = end
        span[5] = rec.sampling_s - self._sampled
        rec._open.pop()
        return False


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Recorder:
    """Keeps spans and speed samples in memory; ``write`` dumps the spans as
    JSON lines at the end."""

    def __init__(self, run_id: str, tracing: bool):
        self.run_id = run_id
        self.tracing = tracing
        self.spans = []  # [name, tag, start, end, parent index, sampling seconds]
        self._open = []
        self.sampling_s = 0.0  # time spent in the sampling handler so far
        self._sample_times = []
        self._sample_seconds = []

    def span(self, name: str, tag: str = ""):
        return _Span(self, name, tag)

    def call(self, name: str, tag: str = ""):
        return _Span(self, name, tag) if self.tracing else _NO_SPAN

    # -- host-speed sampling ------------------------------------------------

    def _sample(self, signum, frame):
        start = perf_counter()
        seconds = reference_seconds()
        self._sample_times.append(start)
        self._sample_seconds.append(seconds)
        self.sampling_s += perf_counter() - start

    def start_sampling(self) -> None:
        for _ in range(BURST):
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(BURST):
            self._sample(None, None)

    def mean_scale(self) -> float:
        """REFERENCE_S over the mean of every sample of the run."""
        return REFERENCE_S / statistics.fmean(self._sample_seconds)

    def _scaled(self) -> list:
        """Per span: (scaled duration, scaled self time), both without the
        sampling handler's own time.  The scale is REFERENCE_S over the mean
        reference time sampled in [start - SAMPLE_WINDOW_S, end +
        SAMPLE_WINDOW_S].

        Spans of one run are strictly nested (one thread), so the children
        of a span never overlap and their durations simply add.
        """
        times = self._sample_times
        prefix = [0.0, *accumulate(self._sample_seconds)]

        def scale(start: float, end: float) -> float:
            lo = bisect.bisect_left(times, start - SAMPLE_WINDOW_S)
            hi = bisect.bisect_right(times, end + SAMPLE_WINDOW_S)
            if lo == hi:  # no sample that close: take the nearest one
                lo = min(lo, len(times) - 1)
                hi = lo + 1
            return REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo])

        durations = [(end - start - sampled) * scale(start, end)
                     for _, _, start, end, _, sampled in self.spans]
        child_time = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span[4] is not None:
                child_time[span[4]] += duration
        return [(d, d - c) for d, c in zip(durations, child_time)]

    def summary(self, max_durations: int = 1024) -> dict:
        """Per ``name[tag]``: count, total and self scaled seconds, and the
        individual scaled durations when there are at most
        ``max_durations``."""
        out = {}
        for span, (duration, self_s) in zip(self.spans, self._scaled()):
            name, tag, start, end, _, sampled = span
            key = f"{name}[{tag}]" if tag else name
            entry = out.setdefault(key, {"n": 0, "total": 0.0, "self": 0.0,
                                         "durations": [], "raw_durations": []})
            entry["n"] += 1
            entry["total"] += duration
            entry["self"] += self_s
            entry["durations"].append(duration)
            entry["raw_durations"].append(end - start - sampled)
        for entry in out.values():
            if entry["n"] > max_durations:
                entry["durations"] = entry["raw_durations"] = None
        return out

    def speed_summary(self) -> dict:
        return {"count": len(self._sample_seconds),
                "median_s": statistics.median(self._sample_seconds),
                "min_s": min(self._sample_seconds),
                "max_s": max(self._sample_seconds),
                "handler_s": self.sampling_s}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, (duration, self_s)) in enumerate(zip(self.spans, self._scaled())):
                name, tag, start, end, parent, sampled = span
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "parent": parent,
                    "name": name, "tag": tag, "start": start, "end": end,
                    "sampling_s": sampled, "scaled_duration": duration,
                    "scaled_self": self_s,
                }) + "\n")
