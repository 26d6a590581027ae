"""Lightweight performance telemetry and the perf-layer configuration.

A process-global :class:`PerfRegistry` collects named counters and scoped
wall-time timers from the optimizer hot paths (rounds, cache hits, worker
utilization, per-phase timings).  The registry is cheap enough to leave on
unconditionally: a counter bump is one dict update, a timer two
``perf_counter`` calls.  ``repro.cli --profile`` prints the report after a
run; tests read individual counters through :func:`counter`.

This module also owns the perf-layer knobs:

* ``REPRO_WORKERS`` — worker-process count for the parallel per-output
  lookahead rounds.  Defaults to ``os.cpu_count()``; ``1`` means the
  serial in-process path (always used as fallback on 1-CPU machines).

Worker processes keep their own registry; the optimizer merges the phase
timings a worker reports back into the parent registry, so the report
always describes the whole computation regardless of the worker count.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple


class PerfRegistry:
    """Named counters and accumulated wall-time timers (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, Tuple[float, int]] = {}  # total s, calls
        # name -> [count, total s, max s, {log2-microsecond bucket: count}]
        self._hists: Dict[str, list] = {}

    # -- counters ----------------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- timers ------------------------------------------------------------

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` of wall time to timer ``name``."""
        with self._lock:
            total, count = self._timers.get(name, (0.0, 0))
            self._timers[name] = (total + seconds, count + calls)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Scope whose wall time is credited to timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def seconds(self, name: str) -> float:
        """Accumulated wall time of a timer (0.0 if never used)."""
        with self._lock:
            return self._timers.get(name, (0.0, 0))[0]

    # -- latency histograms ------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample into histogram ``name``.

        Samples land in logarithmic microsecond buckets (bucket ``b``
        holds latencies below ``2**b`` µs), cheap enough for per-SAT-query
        instrumentation while still answering tail questions (p50/p95).
        """
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = [0, 0.0, 0.0, {}]
            hist[0] += 1
            hist[1] += seconds
            if seconds > hist[2]:
                hist[2] = seconds
            bucket = int(seconds * 1e6).bit_length()
            buckets = hist[3]
            buckets[bucket] = buckets.get(bucket, 0) + 1

    def histogram(self, name: str) -> Optional[Dict]:
        """Snapshot of one histogram (None if never observed)."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                return None
            return {
                "count": hist[0],
                "total": hist[1],
                "max": hist[2],
                "buckets": dict(hist[3]),
            }

    def percentile(self, name: str, q: float) -> float:
        """Upper bound (seconds) of the bucket holding quantile ``q``."""
        hist = self.histogram(name)
        if hist is None or not hist["count"]:
            return 0.0
        need = q * hist["count"]
        seen = 0
        for bucket in sorted(hist["buckets"]):
            seen += hist["buckets"][bucket]
            if seen >= need:
                return (1 << bucket) * 1e-6
        return hist["max"]

    # -- aggregate views ---------------------------------------------------

    def reset(self) -> None:
        """Clear all counters, timers, and histograms."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()
            self._hists.clear()

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict copy of the current state (JSON-serializable)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {
                    name: {"seconds": total, "calls": calls}
                    for name, (total, calls) in self._timers.items()
                },
                "histograms": {
                    name: {
                        "count": hist[0],
                        "total": hist[1],
                        "max": hist[2],
                        "buckets": dict(hist[3]),
                    }
                    for name, hist in self._hists.items()
                },
            }

    def merge(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.incr(name, value)
        for name, entry in snapshot.get("timers", {}).items():
            self.add_time(name, entry["seconds"], entry.get("calls", 1))
        for name, entry in snapshot.get("histograms", {}).items():
            with self._lock:
                hist = self._hists.get(name)
                if hist is None:
                    hist = self._hists[name] = [0, 0.0, 0.0, {}]
                hist[0] += entry["count"]
                hist[1] += entry["total"]
                hist[2] = max(hist[2], entry["max"])
                for bucket, count in entry["buckets"].items():
                    bucket = int(bucket)  # JSON round-trips keys as strings
                    hist[3][bucket] = hist[3].get(bucket, 0) + count

    def ratio(self, hits: str, misses: str) -> float:
        """Hit rate ``hits / (hits + misses)`` of a counter pair (0.0 empty)."""
        h, m = self.counter(hits), self.counter(misses)
        return h / (h + m) if h + m else 0.0

    def report(self) -> str:
        """Human-readable multi-line report of every counter and timer."""
        snap = self.snapshot()
        counters = snap["counters"]
        if "secondary.sat.calls" in counters:  # listed even at zero
            for name in (
                "secondary.sat.unknown",
                "secondary.sat.widened",
                "secondary.sat.widened.unknown",
                "secondary.sat.widened.propagations",
                "secondary.sat.propagations",
                "secondary.sat.conflicts",
                "secondary.session.built",
                "secondary.session.restored",
                "secondary.refresh.nodes",
            ):
                counters.setdefault(name, 0)
        if "secondary.exact.calls" in counters:  # listed even at zero
            counters.setdefault("secondary.exact.unreachable", 0)
        if counters.keys() & {"area.sweep.queries", "area.redundancy.queries"}:
            for name in ("area.sweep.unknown", "area.redundancy.unknown"):
                counters.setdefault(name, 0)  # listed even at zero
        lines = ["perf counters:"]
        if not counters:
            lines.append("  (none)")
        for name in sorted(counters):
            lines.append(f"  {name:<32s} {counters[name]:>10d}")
        if snap["histograms"]:
            lines.append("perf histograms:")
            for name in sorted(snap["histograms"]):
                entry = snap["histograms"][name]
                p50 = self.percentile(name, 0.50)
                p95 = self.percentile(name, 0.95)
                lines.append(
                    f"  {name:<32s} n={entry['count']}"
                    f" total={entry['total']:.3f}s"
                    f" max={entry['max'] * 1e3:.2f}ms"
                    f" p50<={p50 * 1e3:.2f}ms p95<={p95 * 1e3:.2f}ms"
                )
        lines.append("perf timers:")
        if not snap["timers"]:
            lines.append("  (none)")
        for name in sorted(snap["timers"]):
            entry = snap["timers"][name]
            lines.append(
                f"  {name:<32s} {entry['seconds']:>10.3f}s"
                f"  x{entry['calls']}"
            )
        for pair, label in (
            (("store.hit", "store.miss"), "result store hit rate"),
            (("serve.store.hit", "serve.store.miss"), "serve store hit rate"),
            (("cache.spcf.hit", "cache.spcf.miss"), "spcf cache hit rate"),
            (("cache.tts.hit", "cache.tts.miss"), "tts cache hit rate"),
            (("cache.dp.hit", "cache.dp.miss"), "spcf DP memo hit rate"),
            (
                ("secondary.witness.hit", "secondary.sat.calls"),
                "secondary witness hit rate",
            ),
            (
                ("area.prefilter.hit", "area.prefilter.miss"),
                "area prefilter hit rate",
            ),
            (
                ("area.sweep.witness_hits", "area.sweep.queries"),
                "sweep witness hit rate",
            ),
        ):
            h, m = (counters.get(k, 0) for k in pair)
            if h + m:
                lines.append(f"  {label:<32s} {h / (h + m):>10.1%}")
        busy = snap["timers"].get("workers.busy", {}).get("seconds", 0.0)
        wall = snap["timers"].get("workers.capacity", {}).get("seconds", 0.0)
        if wall > 0:
            lines.append(f"  {'worker utilization':<32s} {busy / wall:>10.1%}")
        return "\n".join(lines)


PERF = PerfRegistry()
"""The process-global registry used by the optimizer and the CLI."""

# Pool workers fork while daemon threads bump counters.  A child forked
# with the registry's lock held would hang at its first counter, so fork
# waits for the lock.
os.register_at_fork(
    before=PERF._lock.acquire,
    after_in_parent=PERF._lock.release,
    after_in_child=PERF._lock.release,
)


def delta(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict[str, Dict]:
    """Difference of two :meth:`PerfRegistry.snapshot` dicts.

    Worker processes accumulate into their own process-global registry
    across tasks; a task that wants to report only *its* contribution
    snapshots the registry before and after and ships the delta back to
    the parent, which folds it in with :func:`merge`.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        d = value - before.get("counters", {}).get(name, 0)
        if d:
            counters[name] = d
    timers = {}
    for name, entry in after.get("timers", {}).items():
        prev = before.get("timers", {}).get(name, {"seconds": 0.0, "calls": 0})
        ds = entry["seconds"] - prev["seconds"]
        dc = entry.get("calls", 0) - prev.get("calls", 0)
        if ds or dc:
            timers[name] = {"seconds": ds, "calls": dc}
    histograms = {}
    for name, entry in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name)
        if prev is None:
            histograms[name] = entry
            continue
        dn = entry["count"] - prev["count"]
        if not dn:
            continue
        buckets = {}
        for bucket, count in entry["buckets"].items():
            dc = count - prev["buckets"].get(bucket, 0)
            if dc:
                buckets[bucket] = dc
        histograms[name] = {
            "count": dn,
            "total": entry["total"] - prev["total"],
            # The true window max is unrecoverable from aggregates; the
            # process max is a valid upper bound and merging takes max.
            "max": entry["max"],
            "buckets": buckets,
        }
    return {"counters": counters, "timers": timers, "histograms": histograms}


# Module-level conveniences bound to the global registry.
incr = PERF.incr
counter = PERF.counter
add_time = PERF.add_time
timer = PERF.timer
seconds = PERF.seconds
observe = PERF.observe
histogram = PERF.histogram
percentile = PERF.percentile
reset = PERF.reset
snapshot = PERF.snapshot
merge = PERF.merge
ratio = PERF.ratio
report = PERF.report


# -- configuration ----------------------------------------------------------

WORKERS_ENV = "REPRO_WORKERS"
"""Environment variable selecting the parallel-round worker count."""


def get_workers(override: Optional[int] = None) -> int:
    """Resolve the worker-process count for parallel lookahead rounds.

    Precedence: explicit ``override`` (e.g. ``LookaheadOptimizer(workers=)``)
    > the ``REPRO_WORKERS`` environment variable > ``os.cpu_count()``.
    The result is always >= 1; 1 selects the serial in-process path.
    """
    if override is not None:
        return max(1, int(override))
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1
