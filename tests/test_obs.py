"""Tests for the observability layer (repro.obs).

Covers the three contracts the layer makes:

* **Bit-identity** — exploration results (compared via behavior
  digests, states explored, completeness) are identical with tracing
  off, with a ``NullSink``, and with a full ``RecordingSink``, and with
  metrics on or off.
* **Event truth** — the recorded events actually correspond to what the
  engine did (promises certified, barriers executed, TLB invalidations,
  POR ample choices, cache hits).
* **Aggregation** — the metrics registry merges process snapshots
  additively, including across real pool workers.
* **Free when off** — with no sink installed and metrics off, an
  exploration makes no Python call into ``repro.obs`` at all.
"""

import collections
import multiprocessing
import os
import sys

import pytest

from repro.conformance.digests import behavior_digest
from repro.litmus import catalog
from repro.litmus.runner import SC_CFG, rm_config
from repro.memory.cache import cached_explore, clear_memory_cache
from repro.memory.exploration import explore
from repro.memory.semantics import ModelConfig
from repro.obs import metrics, tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullSink, RecordingSink, recording


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing off and metrics off."""
    tracer.uninstall()
    metrics.disable()
    metrics.REGISTRY.reset()
    yield
    tracer.uninstall()
    metrics.disable()
    metrics.REGISTRY.reset()


def _digest_tuple(result):
    return (
        behavior_digest(result),
        result.states_explored,
        result.complete,
        result.stopped_early,
    )


class TestTracerSinks:
    def test_default_sink_is_none(self):
        assert tracer.sink() is None

    def test_install_uninstall(self):
        sink = NullSink()
        assert tracer.install(sink) is sink
        assert tracer.sink() is sink
        tracer.uninstall()
        assert tracer.sink() is None

    def test_recording_restores_previous_sink(self):
        outer = NullSink()
        tracer.install(outer)
        with recording() as rec:
            assert tracer.sink() is rec
        assert tracer.sink() is outer

    def test_recording_sink_caps_events(self):
        sink = RecordingSink(max_events=3)
        for i in range(5):
            sink.emit("k", n=i)
        assert len(sink.events) == 3
        assert sink.dropped == 2
        assert sink.as_json()["dropped"] == 2

    def test_event_payload_roundtrip(self):
        sink = RecordingSink()
        sink.emit("barrier", tid=1, barrier="FULL")
        event = sink.events[0]
        assert event.kind == "barrier"
        assert event.get("tid") == 1
        assert event.get("barrier") == "FULL"
        assert event.get("missing", "d") == "d"
        assert event.as_dict() == {
            "seq": 0, "kind": "barrier", "barrier": "FULL", "tid": 1,
        }

    def test_span_brackets_events(self):
        sink = RecordingSink()
        with sink.span("phase", name_extra=1) as span_id:
            sink.emit("inner")
        kinds = [e.kind for e in sink.events]
        assert kinds == [tracer.SPAN_BEGIN, "inner", tracer.SPAN_END]
        assert sink.events[0].get("span") == span_id
        assert sink.events[2].get("span") == span_id

    def test_write_trace_file(self, tmp_path):
        sink = RecordingSink()
        sink.emit("k", value=1)
        path = tmp_path / "trace.json"
        sink.write(str(path))
        import json

        data = json.loads(path.read_text())
        assert data["schema"] == "repro.obs.trace/v1"
        assert data["events"][0]["kind"] == "k"


class TestBitIdentity:
    """Tracing and metrics must never change engine results."""

    PROGRAMS = ("message_passing", "load_buffering", "store_buffering",
                "coherence_ww")

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_exploration_digest_unchanged_by_tracing(self, name):
        test = getattr(catalog, name)()
        cfg = rm_config(test.max_promises)
        baseline = _digest_tuple(explore(test.program, cfg))
        tracer.install(NullSink())
        null = _digest_tuple(explore(test.program, cfg))
        tracer.uninstall()
        with recording() as rec:
            recorded = _digest_tuple(explore(test.program, cfg))
        assert baseline == null == recorded
        assert rec.events  # the traced run actually emitted

    @pytest.mark.parametrize("name", PROGRAMS[:2])
    def test_exploration_digest_unchanged_by_metrics(self, name):
        test = getattr(catalog, name)()
        cfg = rm_config(test.max_promises)
        baseline = _digest_tuple(explore(test.program, cfg))
        metrics.enable()
        with_metrics = _digest_tuple(explore(test.program, cfg))
        assert baseline == with_metrics

    def test_sc_exploration_digest_unchanged(self):
        test = catalog.message_passing()
        baseline = _digest_tuple(explore(test.program, SC_CFG))
        with recording():
            traced = _digest_tuple(explore(test.program, SC_CFG))
        assert baseline == traced


_OBS_DIR = os.path.dirname(tracer.__file__) + os.sep


def _obs_calls(max_promises, sink=None, with_metrics=False, program=None):
    """Explore *program* (default ``promise_heavy``) under
    ``sys.setprofile`` and count the Python calls into functions defined
    under ``src/repro/obs/``.

    Returns ``(states, calls, names)``: *calls* is the total, *names*
    counts the calls per function.
    """
    names = collections.Counter()

    def probe(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(_OBS_DIR):
            names[frame.f_code.co_name] += 1

    if program is None:
        program = catalog.promise_heavy_program()
    cfg = ModelConfig(relaxed=True, max_promises_per_thread=max_promises)
    if sink is not None:
        tracer.install(sink)
    if with_metrics:
        metrics.REGISTRY.reset()
        metrics.enable()
    previous = sys.getprofile()
    sys.setprofile(probe)
    try:
        result = explore(program, cfg)
    finally:
        sys.setprofile(previous)
        tracer.uninstall()
        metrics.disable()
    assert result.complete
    return result.states_explored, sum(names.values()), names


def _recorded_events(max_promises):
    """How many events a :class:`RecordingSink` records while exploring
    ``promise_heavy`` (spans included)."""
    program = catalog.promise_heavy_program()
    cfg = ModelConfig(relaxed=True, max_promises_per_thread=max_promises)
    with recording() as rec:
        explore(program, cfg)
    assert rec.dropped == 0
    return len(rec.events)


class TestFreeWhenOff:
    """The contract of docs/OBSERVABILITY.md: with no sink installed and
    metrics off, each emission site costs one ``None`` test (or one
    ``metrics.ENABLED`` read) and makes no call into ``repro.obs``.
    Counting calls instead of timing them makes the check exact on
    every host: one per-step call anywhere in the engine fails it."""

    def test_untraced_exploration_makes_no_obs_call(self):
        states, calls, names = _obs_calls(
            1, program=catalog.example2(False).program
        )
        assert states > 5000
        assert calls == 0, f"untraced run called into repro.obs: {names}"

    def test_probe_sees_the_emission_sites(self):
        # Control for the test above: with a NullSink the same sites do
        # call into repro.obs, exactly twice per event (``emit`` and
        # ``next_seq``), plus ``begin_span`` and ``end_span`` once each.
        calls = {}
        for promises in (1, 3):
            _, calls[promises], names = _obs_calls(promises, sink=NullSink())
            events = _recorded_events(promises)
            assert calls[promises] == 2 * events + 2, (promises, names)
            assert names["emit"] > 0 and names["next_seq"] > 0
        assert calls[3] > calls[1] > 0

    def test_metrics_cost_is_per_exploration_not_per_state(self):
        small_states, small, _ = _obs_calls(1, with_metrics=True)
        states, calls, names = _obs_calls(3, with_metrics=True)
        assert states > small_states
        assert calls == small > 0, names


class TestEventTruth:
    def test_promise_events_match_engine_stats(self):
        test = catalog.message_passing()
        cfg = rm_config(test.max_promises)
        with recording() as rec:
            result = explore(test.program, cfg)
        certified = rec.by_kind(tracer.PROMISE_CERTIFIED)
        made = rec.by_kind(tracer.PROMISE_MADE)
        assert len(certified) == result.stats.certify_calls
        assert len(made) == sum(1 for e in certified if e.get("ok"))
        assert all(e.get("loc") is not None for e in made)

    def test_barrier_and_view_advance_events(self):
        test = catalog.store_buffering(dmb=True)  # two explicit DMBs
        cfg = rm_config(test.max_promises)
        with recording() as rec:
            explore(test.program, cfg)
        barriers = rec.by_kind(tracer.BARRIER)
        assert barriers
        assert all(e.get("barrier") for e in barriers)
        advances = rec.by_kind(tracer.VIEW_ADVANCE)
        assert advances  # a DMB after a store must move the frontier
        for event in advances:
            before, after = event.get("vrn")
            assert after >= before

    def test_tlb_invalidate_events(self):
        test = catalog.example6()  # TLBI after page-table update
        cfg = rm_config(test.max_promises)
        with recording() as rec:
            explore(test.program, cfg)
        events = rec.by_kind(tracer.TLB_INVALIDATE)
        assert events
        for event in events:
            lo, hi = event.get("walker_floor")
            assert hi >= lo

    def test_por_ample_events_match_stats(self):
        test = catalog.example3(correct=True)  # passes the POR gate
        cfg = rm_config(test.max_promises)
        with recording() as rec:
            result = explore(test.program, cfg, por=True)
        assert len(rec.by_kind(tracer.POR_AMPLE)) == (
            result.stats.por_ample_hits
        )

    def test_exploration_span(self):
        test = catalog.load_buffering()
        cfg = rm_config(test.max_promises)
        with recording() as rec:
            result = explore(test.program, cfg)
        begins = rec.by_kind(tracer.SPAN_BEGIN)
        ends = rec.by_kind(tracer.SPAN_END)
        assert len(begins) == len(ends) == 1
        assert begins[0].get("name") == "explore"
        assert begins[0].get("program") == test.program.name
        assert ends[0].get("states") == result.states_explored
        assert ends[0].get("behaviors") == len(result.behaviors)

    def test_cache_hit_miss_events(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXPLORE_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        test = catalog.load_buffering()
        cfg = rm_config(test.max_promises)
        with recording() as rec:
            cached_explore(test.program, cfg)
            cached_explore(test.program, cfg)
        misses = rec.by_kind(tracer.CACHE_MISS)
        hits = rec.by_kind(tracer.CACHE_HIT)
        assert len(misses) == 1
        assert len(hits) == 1
        assert hits[0].get("layer") == "memo"


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        for v in (1, 2, 3, 1000):
            reg.histogram("h").observe(v)
        snap = reg.as_dict()
        assert snap["c"] == {"type": "counter", "value": 5}
        assert snap["g"] == {"type": "gauge", "value": 2.5}
        assert snap["h"]["count"] == 4
        assert snap["h"]["min"] == 1
        assert snap["h"]["max"] == 1000
        assert snap["h"]["mean"] == pytest.approx(1006 / 4)

    def test_merge_is_additive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.histogram("h").observe(1)
        b.histogram("h").observe(100)
        b.gauge("g").set(7)
        a.merge(b.snapshot())
        merged = a.as_dict()
        assert merged["n"]["value"] == 5
        assert merged["h"]["count"] == 2
        assert merged["h"]["min"] == 1
        assert merged["h"]["max"] == 100
        assert merged["g"]["value"] == 7

    def test_merge_json_roundtrip(self, tmp_path):
        import json

        a = MetricsRegistry()
        a.counter("x").inc(9)
        a.histogram("h").observe(3.5)
        path = tmp_path / "m.json"
        a.write(str(path))
        data = json.loads(path.read_text())
        b = MetricsRegistry()
        b.merge(data)
        assert b.as_dict()["x"]["value"] == 9
        assert b.as_dict()["h"]["count"] == 1

    def test_enable_disable(self):
        assert not metrics.metrics_enabled()
        metrics.enable()
        assert metrics.metrics_enabled()
        metrics.disable()
        assert not metrics.metrics_enabled()

    def test_absorb_engine_stats(self):
        test = catalog.message_passing()
        cfg = rm_config(test.max_promises)
        metrics.enable()
        result = explore(test.program, cfg)
        snap = metrics.REGISTRY.as_dict()
        assert snap["explore.explorations"]["value"] == 1
        assert (
            snap["explore.states_explored"]["value"]
            == result.states_explored
        )
        assert (
            snap["explore.certify_calls"]["value"]
            == result.stats.certify_calls
        )

    def test_registry_off_by_default(self):
        test = catalog.message_passing()
        explore(test.program, rm_config(test.max_promises))
        assert metrics.REGISTRY.as_dict() == {}


def _square_worker(n):
    """Module-level pool worker that also records a metric."""
    metrics.REGISTRY.counter("worker.calls").inc()
    metrics.REGISTRY.histogram("worker.input").observe(n)
    return n * n


class TestMultiprocessAggregation:
    def test_worker_wrapper_resets_child_registry(self):
        from repro.parallel.pool import _run_with_metrics

        metrics.REGISTRY.counter("stale.parent").inc(100)
        result, snap = _run_with_metrics(_square_worker, 3)
        assert result == 9
        assert "stale.parent" not in snap["metrics"]
        assert snap["metrics"]["worker.calls"]["value"] == 1

    def test_parallel_map_merges_worker_snapshots(self, monkeypatch):
        """Force a real 2-process pool (the CI box may have 1 CPU)."""
        from repro.parallel import pool

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform without fork")
        monkeypatch.setattr(
            pool, "plan_jobs",
            lambda jobs, batch: pool.JobPlan(2, 2, 2, batch, "forced"),
        )
        metrics.enable()
        metrics.REGISTRY.reset()
        results = pool.parallel_map(_square_worker, [1, 2, 3, 4], jobs=2)
        assert results == [1, 4, 9, 16]
        snap = metrics.REGISTRY.as_dict()
        assert snap["worker.calls"]["value"] == 4
        assert snap["worker.input"]["count"] == 4
        assert snap["worker.input"]["min"] == 1
        assert snap["worker.input"]["max"] == 4
        assert snap["pool.items"]["value"] == 4
        assert snap["pool.workers"]["value"] == 2

    def test_parallel_map_metrics_off_unchanged(self, monkeypatch):
        from repro.parallel import pool

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform without fork")
        monkeypatch.setattr(
            pool, "plan_jobs",
            lambda jobs, batch: pool.JobPlan(2, 2, 2, batch, "forced"),
        )
        results = pool.parallel_map(_square_worker, [5, 6], jobs=2)
        assert results == [25, 36]
        assert metrics.REGISTRY.as_dict() == {}


def _traced_worker(n):
    """Module-level pool worker that emits one span and one event."""
    sink = tracer.SINK
    with sink.span("item", n=n):
        sink.emit(tracer.PROMISE_MADE, tid=n, loc=n, value=n, ts=n)
    return n * n


class TestMultiprocessTracing:
    def _force_pool(self, monkeypatch):
        from repro.parallel import pool

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform without fork")
        monkeypatch.setattr(
            pool, "plan_jobs",
            lambda jobs, batch: pool.JobPlan(2, 2, 2, batch, "forced"),
        )
        return pool

    def test_worker_events_reach_the_parent_in_input_order(self, monkeypatch):
        pool = self._force_pool(monkeypatch)
        with recording() as rec:
            with rec.span("batch"):
                results = pool.parallel_map(_traced_worker, [1, 2, 3, 4], jobs=2)
        assert results == [1, 4, 9, 16]
        made = rec.by_kind(tracer.PROMISE_MADE)
        assert [e.get("tid") for e in made] == [1, 2, 3, 4]
        seqs = [e.seq for e in rec.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Every worker span is renumbered apart from the parent's own.
        begins = rec.by_kind(tracer.SPAN_BEGIN)
        ends = rec.by_kind(tracer.SPAN_END)
        assert len({e.get("span") for e in begins}) == 5
        assert {e.get("span") for e in begins} == {e.get("span") for e in ends}

    def test_worker_events_combine_with_metrics(self, monkeypatch):
        pool = self._force_pool(monkeypatch)
        metrics.enable()
        metrics.REGISTRY.reset()
        with recording() as rec:
            results = pool.parallel_map(_square_worker, [2, 3], jobs=2)
            traced = pool.parallel_map(_traced_worker, [5, 6], jobs=2)
        assert results == [4, 9] and traced == [25, 36]
        assert metrics.REGISTRY.as_dict()["worker.calls"]["value"] == 2
        assert len(rec.by_kind(tracer.PROMISE_MADE)) == 2

    def test_worker_drops_are_counted(self, monkeypatch):
        pool = self._force_pool(monkeypatch)
        with recording(max_events=1) as rec:
            pool.parallel_map(_traced_worker, [1, 2], jobs=2)
        # Each worker kept its span_begin and dropped two events.
        assert rec.dropped >= 4

    def test_worker_wrapper_restores_the_inherited_sink(self):
        from repro.parallel.pool import _run_with_trace

        with recording() as rec:
            result, events, dropped = _run_with_trace(_traced_worker, 10, 7)
            assert tracer.SINK is rec
        assert result == 49 and dropped == 0
        assert [kind for kind, _ in events] == [
            tracer.SPAN_BEGIN, tracer.PROMISE_MADE, tracer.SPAN_END,
        ]
        assert rec.events == []
