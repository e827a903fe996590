"""Timing, host-speed scaling, tracing and cache accounting for the benchmark.

Nothing here knows a workload. A workload module hands the harness a set-up
function and a list of operations; the harness times them, scales the times
to a reference host speed, and (in the traced run) records spans and cache
counts around the benchmark's own calls into the toolkit.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple

# The host this benchmark runs on drifts in speed: the time of a fixed slice
# of work varies by up to 70% from one moment to the next, its one-second
# means move by about 12% within seconds, and CPU time moves with wall time,
# so it is the processor, not the scheduler. A fixed slice of pure-Python
# work, timed between operations, tracks that speed; every operation's time is scaled by REF_NOMINAL_S over
# the mean reference time within REF_WINDOW_S of it. A program change that
# makes an operation slower still shows in full, while the host's drift
# largely cancels.
REF_NOMINAL_S = 0.0050  # one reference slice on the baseline host at its usual speed
REF_EVERY_S = 0.25  # one reference sample per this much time between operations
REF_MAX_BURST = 8  # samples taken at once after a long operation
REF_WINDOW_S = 5.0

SETUP_REPEATS = 7

# Processors this process may use, before pin_to_one_cpu() narrows them.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    """Run on one processor, so the reference slice measures the processor
    that does the work: the host's processors drift in speed independently.
    Child processes inherit the pin."""
    os.sched_setaffinity(0, {min(ALL_CPUS)})


def unpin() -> None:
    """For a child that should use every processor (a --jobs N command)."""
    os.sched_setaffinity(0, ALL_CPUS)


@contextmanager
def unpinned():
    """Every processor for the duration, for in-process --jobs N work."""
    pinned = os.sched_getaffinity(0)
    unpin()
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def ref_sample() -> float:
    """Seconds for one reference slice: small-int arithmetic, list indexing
    and tuple building, the same kind of work as the toolkit's inner loops."""
    t0 = time.perf_counter()
    acc = [0] * 64
    for i in range(45000):
        acc[(i * 7) & 63] += i & 15
    sum(tuple(acc))
    return time.perf_counter() - t0


class Meter:
    """Times operations by kind and scales them to the reference host speed."""

    def __init__(self) -> None:
        self.refs: list[tuple[float, float]] = []  # (when, reference seconds)
        self.records: list[tuple[str, float, float]] = []  # (kind, midpoint, raw s)
        self.sample()

    def sample(self) -> None:
        # As many samples as the time since the last one is worth, so that a
        # long operation (a CLI command, say) is weighed by enough of them.
        gap = time.perf_counter() - self.refs[-1][0] if self.refs else REF_EVERY_S
        for _ in range(min(REF_MAX_BURST, max(1, int(gap / REF_EVERY_S)))):
            self.refs.append((time.perf_counter(), ref_sample()))

    def measure(self, kind: str, fn: Callable[[], object]) -> object:
        if time.perf_counter() - self.refs[-1][0] > REF_EVERY_S:
            self.sample()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.records.append((kind, t0 + dt / 2, dt))
        return result

    def scaled(self) -> dict[str, list[float]]:
        """Seconds per kind at the reference speed, in measurement order."""
        self.sample()
        out: dict[str, list[float]] = {}
        for kind, mid, dt in self.records:
            near = [r for when, r in self.refs if abs(when - mid) <= REF_WINDOW_S + dt / 2]
            out.setdefault(kind, []).append(dt * REF_NOMINAL_S / statistics.fmean(near))
        return out

    def host_ref_ms(self) -> float:
        return 1000 * statistics.fmean(r for _, r in self.refs)


def _problems(result):
    return result


class Op(NamedTuple):
    """One timed operation. run(tracer) is timed; check(result) lists what is wrong."""

    kind: str
    run: Callable[[object], object]
    check: Callable[[object], list] = _problems


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: str
    calls: int


class NullTracer:
    """The untraced stand-in: same calls, nothing recorded."""

    enabled = False
    request = ""

    def span(self, name: str, calls: int = 1):
        return nullcontext()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass


class _OpenSpan:
    __slots__ = ("tracer", "name", "calls", "index", "start", "parent")

    def __init__(self, tracer: "Tracer", name: str, calls: int):
        self.tracer, self.name, self.calls = tracer, name, calls

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)  # reserved, so children see their parent's index
        tr._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = Span(
            self.name, self.start, end, self.parent, tr.request, self.calls
        )
        return False


class Tracer:
    """Spans kept in memory: name, start, end, parent, request id, calls."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.request = ""
        self.counts: dict[str, int] = {}

    def span(self, name: str, calls: int = 1) -> _OpenSpan:
        return _OpenSpan(self, name, calls)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds, calls). Self time excludes children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, tuple[float, int]] = {}
        for i, s in enumerate(self.spans):
            secs, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (secs + (s.end - s.start) - child[i], calls + s.calls)
        return out

    def root_seconds(self, exclude: str) -> float:
        """Seconds covered by root spans, except those named `exclude`."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0 and s.name != exclude)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- program caches -------------------------------------------------------------

CACHE_NAMES = ("all_points", "gamma_table", "_context", "_unit_candidates", "_dot_table")


def program_caches() -> dict[str, object]:
    """Every functools cache defined in a gbent module, by function name."""
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname != "gbent" and not modname.startswith("gbent."):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname:
                out[name] = obj
    return out


class CacheStats:
    """Hits and misses of the program's caches, summed across cache clears."""

    def __init__(self) -> None:
        self.caches = program_caches()
        self.totals = {name: [0, 0] for name in self.caches}
        self._base = self._snapshot()

    def _snapshot(self) -> dict[str, tuple[int, int]]:
        return {
            name: (c.cache_info().hits, c.cache_info().misses)
            for name, c in self.caches.items()
        }

    def _fold(self) -> None:
        now = self._snapshot()
        for name, (hits, misses) in now.items():
            self.totals[name][0] += hits - self._base[name][0]
            self.totals[name][1] += misses - self._base[name][1]
        self._base = now

    def clear(self) -> None:
        self._fold()
        for c in self.caches.values():
            c.cache_clear()
        self._base = self._snapshot()

    def metrics(self) -> dict[str, tuple[float, str]]:
        self._fold()
        out = {}
        for name in CACHE_NAMES:
            hits, misses = self.totals.get(name, (0, 0))
            key = name.lstrip("_")
            out[f"cache.{key}.hits"] = (hits, "count")
            out[f"cache.{key}.misses"] = (misses, "count")
            # Base of the ratio: hits + misses, both reported above.
            out[f"cache.{key}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        return out


def clear_program_caches() -> None:
    for c in program_caches().values():
        c.cache_clear()
