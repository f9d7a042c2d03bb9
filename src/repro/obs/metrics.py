"""Process-wide metrics registry: counters, gauges, histograms.

The registry absorbs and extends :class:`repro.memory.datatypes.
EngineStats`: every exploration already accumulates an ``EngineStats``;
when metrics are enabled the engine folds it into the registry at the
end of the run (:func:`absorb_engine_stats`), and subsystems add their
own cold-path counters (cache hits, fuzz findings, verifier passes) on
top.  Everything serializes to plain JSON for the ``--metrics-out`` CLI
flag.

Like the tracer, collection is **off by default** and the hot paths
never touch the registry per-state — only per-exploration and at other
cold call sites, each behind :func:`metrics_enabled` (a module-global
flag, settable by :func:`enable`/:func:`disable`).

Multiprocess aggregation: :func:`repro.parallel.pool.parallel_map`
wraps each work item so the child resets its registry before running
and ships a :meth:`MetricsRegistry.snapshot` back alongside the result;
the parent :meth:`MetricsRegistry.merge`\\ s the snapshots.  The
child-side reset is what makes this correct under ``fork`` — without it
the stats the parent accumulated before forking would be counted once
per worker.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Dict, List, Optional

#: Fixed histogram bucket upper bounds (powers of two up to 1M, then
#: +inf).  Fixed buckets keep snapshots mergeable across processes.
BUCKET_BOUNDS: List[float] = [2.0 ** k for k in range(21)] + [float("inf")]


class Counter:
    """A monotonically increasing count (events, states, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form: ``{"type": "counter", "value": n}``."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (pool size, interner population)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form: ``{"type": "gauge", "value": x}``."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A distribution over fixed power-of-two buckets.

    Tracks count/sum/min/max plus per-bucket counts, so percentile
    estimates survive JSON round-trips and cross-process merges.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * len(BUCKET_BOUNDS)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1

    def mean(self) -> float:
        """The running mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form with non-empty buckets keyed by upper bound."""
        nonzero = {
            ("inf" if bound == float("inf") else repr(bound)): n
            for bound, n in zip(BUCKET_BOUNDS, self.buckets)
            if n
        }
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "buckets": nonzero,
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metric names are dotted paths (``explore.certify_calls``,
    ``cache.disk_hits``, ``fuzz.findings``).  Lookup methods create on
    first use, so call sites never pre-register.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named *name*, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge named *name*, created on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        """The histogram named *name*, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def reset(self) -> None:
        """Drop every metric (workers call this right after receiving
        a work item, so fork-inherited parent state is not re-counted)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable copy of the current state.

        The snapshot is what workers ship back to the parent and what
        ``--metrics-out`` writes; :meth:`merge` consumes the same shape.
        """
        return {
            "schema": "repro.obs.metrics/v1",
            "metrics": self.as_dict(),
        }

    def as_dict(self) -> Dict[str, Any]:
        """``{name: metric.as_dict()}`` over every registered metric."""
        out: Dict[str, Any] = {}
        for name, c in self._counters.items():
            out[name] = c.as_dict()
        for name, g in self._gauges.items():
            out[name] = g.as_dict()
        for name, h in self._histograms.items():
            out[name] = h.as_dict()
        return out

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        Counters and histograms add; gauges keep the incoming value
        (last-writer-wins — gauges are point-in-time by definition).
        """
        for name, m in snap.get("metrics", {}).items():
            kind = m.get("type")
            if kind == "counter":
                self.counter(name).inc(m["value"])
            elif kind == "gauge":
                self.gauge(name).set(m["value"])
            elif kind == "histogram":
                h = self.histogram(name)
                h.count += m["count"]
                h.total += m["sum"]
                if m["min"] is not None:
                    h.min = m["min"] if h.min is None else min(h.min, m["min"])
                if m["max"] is not None:
                    h.max = m["max"] if h.max is None else max(h.max, m["max"])
                for key, n in m.get("buckets", {}).items():
                    bound = float("inf") if key == "inf" else float(key)
                    h.buckets[bisect.bisect_left(BUCKET_BOUNDS, bound)] += n

    def write(self, path: str) -> None:
        """Write :meth:`snapshot` as pretty-printed JSON to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")


#: The process-wide registry.  Always present (so call sites never
#: None-check the object itself); whether anything *writes* to it is
#: gated by :func:`metrics_enabled`.
REGISTRY = MetricsRegistry()

#: Collection flag.  Off by default; :func:`enable`/:func:`disable`
#: (or the CLI's ``--metrics-out``) switch it at runtime.
ENABLED = False


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return REGISTRY


def metrics_enabled() -> bool:
    """Whether metric collection is on (cold call sites check this)."""
    return ENABLED


def enable() -> None:
    """Turn metric collection on for this process."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn metric collection off (the registry keeps its contents)."""
    global ENABLED
    ENABLED = False


def absorb_engine_stats(stats: Any, prefix: str = "explore") -> None:
    """Fold one exploration's ``EngineStats`` into the registry.

    Called once at the end of each exploration (never per-state), and
    only when :func:`metrics_enabled` — the caller guards.  Each
    ``EngineStats`` field becomes a counter ``<prefix>.<field>`` and the
    exploration itself bumps ``<prefix>.explorations``.
    """
    REGISTRY.counter(prefix + ".explorations").inc()
    for field, value in stats.as_dict().items():
        if value:
            REGISTRY.counter(prefix + "." + field).inc(value)
