"""Observability layer: structured tracing, metrics, and explanations.

``repro.obs`` is the zero-dependency instrumentation substrate the rest
of the engine emits into.  It has three parts, each usable alone:

* :mod:`repro.obs.tracer` — a structured event tracer.  Engine code
  emits typed events (promise made/certified, barrier, view advance,
  TLB invalidate, monitor stop, POR ample-set choice, cache hit/miss)
  and brackets phases in spans.  The default sink is ``None`` — every
  emission site is a single ``is None`` check, so the untraced engine
  pays nothing measurable (<2% on the promise-heavy benchmark, guarded
  in CI).
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and histograms.  It absorbs :class:`repro.memory.datatypes.
  EngineStats` from every exploration, aggregates across worker
  processes (:func:`repro.parallel.parallel_map` ships worker snapshots
  back to the parent), and serializes to JSON for the
  ``--metrics-out`` CLI flag.
* :mod:`repro.obs.render` — the execution-explanation renderer: it
  turns a failing exploration, a shrunk conformance witness, or a
  failing wDRF check into a step-by-step textual/JSON account of the
  execution — per-thread views, promises and their certification, and
  the per-location coherence order.  Wired into ``repro trace``.

Nothing in this package imports the engine at module level (the
renderer imports lazily), so instrumented modules can import ``obs``
without cycles.  See ``docs/OBSERVABILITY.md`` for the guide.
"""

from repro.obs.tracer import (
    NullSink,
    RecordingSink,
    TraceEvent,
    TraceSink,
    install,
    recording,
    sink,
    uninstall,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_enabled,
    registry,
)

__all__ = [
    "NullSink",
    "RecordingSink",
    "TraceEvent",
    "TraceSink",
    "install",
    "recording",
    "sink",
    "uninstall",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_enabled",
    "registry",
]
