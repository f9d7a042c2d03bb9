"""Structured event tracing for the exploration/verification pipeline.

The engine's hot paths emit *typed events* into a process-wide sink.
The design is built around one invariant: **tracing off must be free**.
The global sink defaults to ``None`` and every emission site is written

.. code-block:: python

    from repro.obs import tracer
    ...
    if tracer.SINK is not None:
        tracer.SINK.emit(tracer.PROMISE_MADE, tid=t, loc=loc, ts=ts)

— a single module-attribute load and ``is None`` test on the no-op
path, with no call into this package; ``TestFreeWhenOff`` in
``tests/test_obs.py`` counts those calls (see
``docs/OBSERVABILITY.md``).  Long-running loops may hoist
``tracer.SINK`` into a local at loop entry; a sink installed mid-loop
is then picked up by the next loop, which is the documented contract.

Event kinds are plain strings (module constants below) and payloads are
keyword arguments — JSON-serializable values only, so a recorded trace
dumps straight to disk for the ``--trace FILE`` CLI flag and the CI
artifacts.  Spans bracket phases (one exploration, one fused wDRF pass,
one fuzzed program) with matched ``span_begin``/``span_end`` events
carrying a shared span id.

The default sink is process-local.  :func:`repro.parallel.parallel_map`
workers record each item's events in a sink of their own and ship them
back with the result; the parent :meth:`~TraceSink.replay` s them into
its sink in input order, so a pooled run traces like a serial one.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

# --- event kinds (the typed vocabulary of the engine) ------------------

#: A thread appended a certified promise to the timeline.
PROMISE_MADE = "promise_made"
#: A certification search returned (verdict + memo accounting).
PROMISE_CERTIFIED = "promise_certified"
#: A barrier instruction executed (kind + frontier movement).
BARRIER = "barrier"
#: A thread's view frontier advanced (vrn/vwn after a barrier).
VIEW_ADVANCE = "view_advance"
#: A TLBI executed (invalidated vpn + new walker floor).
TLB_INVALIDATE = "tlb_invalidate"
#: The walker wrote hardware access/dirty bits into a leaf entry (``had``).
WALKER_AD_WRITE = "walker_ad_write"
#: A streaming monitor called ``stop()`` during an exploration.
MONITOR_STOP = "monitor_stop"
#: The POR plan scheduled a single ample thread for a state.
POR_AMPLE = "por_ample"
#: An exploration-cache lookup hit (memo or disk layer).
CACHE_HIT = "cache_hit"
#: An exploration-cache lookup missed and the pass ran for real.
CACHE_MISS = "cache_miss"
#: A phase opened (exploration, wDRF pass, fuzzed program).
SPAN_BEGIN = "span_begin"
#: A phase closed.
SPAN_END = "span_end"


class TraceEvent(NamedTuple):
    """One emitted event: a monotone sequence number, a kind, a payload."""

    seq: int
    kind: str
    data: Tuple[Tuple[str, Any], ...]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by ``--trace FILE`` and tests)."""
        out: Dict[str, Any] = {"seq": self.seq, "kind": self.kind}
        out.update(self.data)
        return out

    def get(self, field: str, default: Any = None) -> Any:
        """Payload field lookup (events are tiny; linear scan is fine)."""
        for key, value in self.data:
            if key == field:
                return value
        return default


class TraceSink:
    """Base sink: receives every emitted event; subclasses store them.

    The base class implements span bookkeeping so subclasses only
    override :meth:`emit`.  A sink is process-local and not thread-safe
    by design (the engine is single-threaded per process).
    """

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._span_ids = itertools.count()

    def emit(self, kind: str, **data: Any) -> None:
        """Receive one event.  Subclasses override; the base discards."""

    def next_seq(self) -> int:
        """The next event sequence number (monotone per sink)."""
        return next(self._seq)

    def begin_span(self, name: str, **data: Any) -> int:
        """Open a span: emits ``span_begin``, returns the span id.

        For call sites where a ``with`` block does not fit the control
        flow (e.g. the exploration loop); pair with :meth:`end_span`.
        """
        span_id = next(self._span_ids)
        self.emit(SPAN_BEGIN, span=span_id, name=name, **data)
        return span_id

    def end_span(self, span_id: int, name: str, **data: Any) -> None:
        """Close a span opened by :meth:`begin_span`."""
        self.emit(SPAN_END, span=span_id, name=name, **data)

    def replay(
        self, events: List[Tuple[str, Dict[str, Any]]], dropped: int = 0
    ) -> None:
        """Re-emit ``(kind, data)`` events another sink recorded.

        Used for pool workers' events: they get this sink's sequence
        numbers, and their span ids are renumbered from this sink's
        counter so they cannot collide with its own spans.  *dropped*
        is how many events the recording sink had to drop; sinks that
        count drops add it.
        """
        spans: Dict[Any, int] = {}
        for kind, data in events:
            if kind in (SPAN_BEGIN, SPAN_END) and "span" in data:
                span = spans.get(data["span"])
                if span is None:
                    span = spans[data["span"]] = next(self._span_ids)
                data = dict(data, span=span)
            self.emit(kind, **data)

    @contextlib.contextmanager
    def span(self, name: str, **data: Any) -> Iterator[int]:
        """Bracket a phase with ``span_begin``/``span_end`` events.

        Yields the span id so nested emissions can reference it.
        """
        span_id = self.begin_span(name, **data)
        try:
            yield span_id
        finally:
            self.end_span(span_id, name)


class NullSink(TraceSink):
    """A sink that swallows everything.

    Installing a ``NullSink`` (rather than leaving ``SINK`` as ``None``)
    exercises every emission site while keeping results bit-identical —
    the configuration the no-op bit-identity tests run under.
    """

    def emit(self, kind: str, **data: Any) -> None:
        """Discard the event (but burn a sequence number, like any sink)."""
        self.next_seq()


class RecordingSink(TraceSink):
    """A sink that records events in memory, up to a cap.

    ``max_events`` bounds memory on pathological runs (a traced
    exploration can emit one ``por_ample`` event per state); events past
    the cap are counted in :attr:`dropped` instead of stored, so a
    truncated trace is detectable rather than silently short.
    """

    def __init__(self, max_events: int = 100_000) -> None:
        super().__init__()
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def emit(self, kind: str, **data: Any) -> None:
        """Record one event (or count it as dropped past the cap)."""
        seq = self.next_seq()
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(seq, kind, tuple(sorted(data.items()))))

    def replay(
        self, events: List[Tuple[str, Dict[str, Any]]], dropped: int = 0
    ) -> None:
        """Re-emit another sink's events; its drops count as this one's."""
        super().replay(events)
        self.dropped += dropped

    def by_kind(self, kind: str) -> List[TraceEvent]:
        """The recorded events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """``{kind: count}`` over the recorded events."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def as_json(self) -> Dict[str, Any]:
        """JSON-ready dump: events plus truncation accounting."""
        return {
            "schema": "repro.obs.trace/v1",
            "events": [e.as_dict() for e in self.events],
            "dropped": self.dropped,
        }

    def write(self, path: str) -> None:
        """Write the trace as pretty-printed JSON to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


#: The process-wide sink.  ``None`` (the default) means tracing is off
#: and emission sites reduce to one ``is None`` check.  Read it as
#: ``tracer.SINK`` (module attribute) so :func:`install` takes effect
#: everywhere at once.
SINK: Optional[TraceSink] = None


def sink() -> Optional[TraceSink]:
    """The currently installed sink, or ``None`` when tracing is off."""
    return SINK


def install(new_sink: TraceSink) -> TraceSink:
    """Install *new_sink* as the process-wide sink; returns it."""
    global SINK
    SINK = new_sink
    return new_sink


def uninstall() -> None:
    """Remove the installed sink (tracing back to the free no-op path)."""
    global SINK
    SINK = None


@contextlib.contextmanager
def recording(max_events: int = 100_000) -> Iterator[RecordingSink]:
    """Context manager: install a :class:`RecordingSink` for the block.

    The previously installed sink (usually ``None``) is restored on
    exit, so tests and CLI commands can trace without leaking state.
    """
    global SINK
    previous = SINK
    rec = RecordingSink(max_events=max_events)
    SINK = rec
    try:
        yield rec
    finally:
        SINK = previous
