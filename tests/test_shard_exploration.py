"""Frontier sharding (``repro.parallel.shard``): the shared visited
filter's conservative-miss protocol, bit-identity with the serial
engine on litmus tests and fuzzed programs (the whole catalog runs
through the ``shard`` oracle in tests/test_differential.py),
monitor-stop reconstruction, crash cleanup, and the plan/knob
plumbing."""

import multiprocessing
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.conformance import PROFILES, build, derive_rng, random_genome
from repro.conformance.oracles import check_program
from repro.ir import ThreadBuilder, build_program
from repro.litmus import full_corpus
from repro.memory import ModelConfig, explore
from repro.memory.datatypes import ExplorationMonitor, ExplorationResult
from repro.memory.state import initial_state, state_fingerprint
from repro.obs import tracer
from repro.parallel import shard
from repro.parallel.pool import (
    JobPlan,
    available_cpus,
    plan_jobs,
    resolve_shard_jobs,
)
from repro.parallel.shard import SharedVisitedFilter

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="frontier sharding requires the fork start method",
)

#: The verification-visible result fields the sharded engine must
#: reproduce exactly.  ``stats`` is deliberately absent: memo-locality
#: counters legitimately differ (each worker owns its CertMemo).
IDENTITY_FIELDS = (
    "behaviors", "complete", "states_explored", "cut_paths",
    "stopped_early", "terminal_states",
)

X, Y, Z = 0x10, 0x20, 0x30


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    """Sharding tests must time-travel through real explorations."""
    monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
    monkeypatch.setenv("REPRO_EXPLORE_MEMO", "0")
    monkeypatch.delenv("REPRO_SHARD", raising=False)
    monkeypatch.delenv("REPRO_SHARD_TIMEOUT", raising=False)


@contextmanager
def shard_env(n):
    saved = os.environ.get("REPRO_SHARD")
    os.environ["REPRO_SHARD"] = str(n)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_SHARD", None)
        else:
            os.environ["REPRO_SHARD"] = saved


def assert_identical(serial, sharded, label=""):
    for field in IDENTITY_FIELDS:
        assert getattr(sharded, field) == getattr(serial, field), (
            f"{label}: {field} diverged"
        )


def run_both(program, cfg, shards=2, make_monitors=lambda: None,
             monitor_cut=True):
    """Explore serially and with *shards* workers; return both results
    plus the two monitor lists for snapshot comparison."""
    with shard_env(0):
        serial_monitors = make_monitors()
        serial = explore(program, cfg, monitors=serial_monitors,
                         monitor_cut=monitor_cut)
    with shard_env(shards):
        sharded_monitors = make_monitors()
        sharded = explore(program, cfg, monitors=sharded_monitors,
                          monitor_cut=monitor_cut)
    return serial, sharded, serial_monitors, sharded_monitors


def wide_program():
    """Three threads, wide frontier (~10k relaxed states): guarantees
    the fan-out engages (the seed phase alone cannot drain it) while
    staying well under the default state budget."""
    t0 = ThreadBuilder(0)
    t0.store(X, 1).load("r0", Y)
    t1 = ThreadBuilder(1)
    t1.store(Y, 1).load("r1", Z)
    t2 = ThreadBuilder(2)
    t2.store(Z, 1).load("r2", X)
    return build_program(
        [t0, t1, t2],
        observed={0: ["r0"], 1: ["r1"], 2: ["r2"]},
        initial_memory={X: 0, Y: 0, Z: 0},
    )


class StopAfter(ExplorationMonitor):
    """Stops after a fixed number of valid terminal observations —
    exercises the serial-order replay's early-exit reconstruction."""

    kind = "stop_after"
    extra_state = ("limit",)

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def on_terminal(self, state):
        if self.terminals_seen >= self.limit:
            self.stop()


class TestSharedVisitedFilter:
    def test_add_then_hit(self):
        vfilter = SharedVisitedFilter(nslots=1024)
        try:
            assert vfilter.add(0xDEADBEEF) is True
            assert vfilter.add(0xDEADBEEF) is False
            assert vfilter.hits == 1
            assert vfilter.full_misses == 0
        finally:
            vfilter.close()

    def test_distinct_fingerprints_coexist(self):
        vfilter = SharedVisitedFilter(nslots=1024)
        try:
            fps = [state_fingerprint(initial_state(n)) for n in range(1, 9)]
            assert all(vfilter.add(fp) for fp in fps)
            assert not any(vfilter.add(fp) for fp in fps)
        finally:
            vfilter.close()

    def test_full_stripe_degrades_to_conservative_miss(self):
        # One slot per stripe: the second fingerprint hashing to the
        # same slot finds the probe window full.  It must be reported
        # as NEW (duplicated work), never as seen (a dropped subtree).
        vfilter = SharedVisitedFilter(nslots=SharedVisitedFilter.STRIPES)
        try:
            assert vfilter.span == 1
            assert vfilter.add(5) is True
            colliding = 5 + vfilter.nslots
            assert vfilter.add(colliding) is True  # conservative miss
            assert vfilter.full_misses == 1
            # The stored fingerprint still hits exactly.
            assert vfilter.add(5) is False
            assert vfilter.hits == 1
        finally:
            vfilter.close()

    def test_probe_window_fills_then_degrades(self):
        # span (128) > PROBE_LIMIT (64): after 64 same-slot inserts the
        # window is full even though the stripe has free slots.
        nslots = SharedVisitedFilter.STRIPES * 128
        vfilter = SharedVisitedFilter(nslots=nslots)
        try:
            probe = min(SharedVisitedFilter.PROBE_LIMIT, vfilter.span)
            fps = [7 + k * nslots for k in range(probe + 1)]
            for fp in fps[:probe]:
                assert vfilter.add(fp) is True
            assert vfilter.full_misses == 0
            assert vfilter.add(fps[probe]) is True
            assert vfilter.full_misses == 1
            for fp in fps[:probe]:  # nothing stored was evicted
                assert vfilter.add(fp) is False
        finally:
            vfilter.close()

    def test_close_unlinks_segment(self):
        vfilter = SharedVisitedFilter(nslots=1024)
        name = vfilter.name
        vfilter.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_fingerprints_nonzero_and_content_based(self):
        a = state_fingerprint(initial_state(2))
        b = state_fingerprint(initial_state(2))
        c = state_fingerprint(initial_state(3))
        assert a != 0
        assert a == b      # equal states, equal fingerprints
        assert a != c

    def test_hash_colliding_states_get_distinct_fingerprints(self):
        # CPython's tuple hash is a pure function of element hashes and
        # hash(-1) == hash(-2), so these two states collide under any
        # hash()-derived scheme (in *all* bits — two salted passes over
        # the same tuple are fully correlated).  A false filter hit
        # silently drops a subtree, so the fingerprint must be a real
        # digest that still separates them.
        base = initial_state(2)
        s1 = base._replace(walker_floor=-1)
        s2 = base._replace(walker_floor=-2)
        assert hash(s1) == hash(s2)
        assert state_fingerprint(s1) != state_fingerprint(s2)

    def test_memoized_fingerprint_equals_pure(self):
        # The FingerprintMemo is a pure cache: the seed phase and every
        # worker hold different memo instances (or none), so the value
        # must be identical with and without one — across fresh and
        # identity-shared components alike.
        from repro.memory.semantics import ProgramCache
        from repro.memory.state import FingerprintMemo
        from repro.parallel.shard import _successors

        program = wide_program()
        cache = ProgramCache(program)
        cfg = ModelConfig(relaxed=False)
        memo = FingerprintMemo()
        from repro.memory.semantics import CertMemo
        from repro.memory.datatypes import EngineStats
        stats = EngineStats()
        cmemo = CertMemo(interner=None, stats=stats)
        frontier = [initial_state(len(program.threads))]
        checked = 0
        while frontier and checked < 200:
            state = frontier.pop()
            checked += 1
            assert state_fingerprint(state, memo) == state_fingerprint(state)
            frontier.extend(
                _successors(cache, state, cfg, cmemo, None, stats, None)
            )

    def test_fingerprints_independent_of_hash_seed(self):
        # The digest is content-based, so every process agrees on it —
        # even across PYTHONHASHSEED boundaries (strings in the state
        # would perturb any hash()-based fingerprint).
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "from repro.memory.state import initial_state, "
            "state_fingerprint; "
            "print(state_fingerprint("
            "initial_state(2)._replace(panic='boom')))"
        )
        values = set()
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            values.add(int(proc.stdout.strip()))
        local = state_fingerprint(initial_state(2)._replace(panic="boom"))
        assert values == {local}


class TestWorkerCounterDeltas:
    def test_worker_reports_filter_deltas_not_inherited_totals(self):
        # A forked worker inherits the parent's SharedVisitedFilter
        # *object*, whose process-local hits/full_misses still hold the
        # seed phase's counts.  The worker must report deltas from that
        # fork-time baseline — otherwise the parent's aggregation
        # re-adds the seed counts once per worker, inflating the trace
        # event and tripping the filter-saturated fallback early.
        from repro.memory.semantics import ProgramCache

        program = wide_program()
        cache = ProgramCache(program)
        cfg = ModelConfig(relaxed=False)
        observe_locs = sorted(cache.initial_memory)
        vfilter = SharedVisitedFilter(nslots=4096)
        try:
            # Simulate seed-phase residue the fork would inherit.
            vfilter.hits = 7
            vfilter.full_misses = 3
            start = initial_state(len(program.threads))
            fp = state_fingerprint(start)
            vfilter.add(fp)
            ctx = multiprocessing.get_context("fork")
            shared = shard._SharedState(ctx, n_workers=1, budget_left=10**6)
            out = shard._worker_body(
                0, cache, cfg, observe_locs, None, [(fp, start)],
                vfilter, shared, None, True, False,
            )
            assert out.states_explored > 0
            assert out.filter_hits == vfilter.hits - 7
            assert out.full_misses == vfilter.full_misses - 3
        finally:
            vfilter.close()


class TestBitIdentity:
    def test_litmus_subset_four_shards(self):
        for test in full_corpus()[:10]:
            cfg = ModelConfig(relaxed=True)
            serial, sharded, _, _ = run_both(test.program, cfg, shards=4)
            assert_identical(serial, sharded, f"{test.name}/4shards")

    def test_fifty_fuzzed_programs(self):
        for i in range(50):
            profile = PROFILES[i % len(PROFILES)]
            genome = random_genome(
                profile, derive_rng(2024, "shard-identity", i),
                name=f"fz{i}",
            )
            program = build(genome)
            cfg = ModelConfig(relaxed=True)
            serial, sharded, _, _ = run_both(program, cfg, shards=2)
            assert_identical(serial, sharded, f"fuzz {profile}#{i}")

    def test_wide_program_actually_shards(self):
        # Meta-check: the other tests only prove identity; this one
        # proves the fan-out ran (workers explored states) so identity
        # wasn't trivially "seed finished serially".
        cfg = ModelConfig(relaxed=True)
        # por_ample events alone can flood the default cap; raise it so
        # span_end is never dropped.
        with shard_env(2), tracer.recording(max_events=500_000) as sink:
            result = explore(wide_program(), cfg)
        spans = [e for e in sink.by_kind(tracer.SPAN_END)
                 if e.get("name") == "shard_explore"]
        assert spans, "shard orchestrator never ran"
        assert spans[-1].get("outcome") in ("sharded", "sharded-replay")
        assert result.complete

    def test_budget_cut_states_exact(self):
        # The state budget is order-dependent; the sharded engine must
        # reconstruct serial's exact budget semantics (it falls back).
        cfg = ModelConfig(relaxed=True, max_states=100)
        serial, sharded, _, _ = run_both(wide_program(), cfg, shards=2)
        assert serial.states_explored == 100
        assert not serial.complete
        assert_identical(serial, sharded, "budget-cut")


class TestMonitoredRuns:
    def test_stop_reconstruction_matches_serial(self):
        cfg = ModelConfig(relaxed=True)
        for limit in (1, 3, 10):
            serial, sharded, m_serial, m_sharded = run_both(
                wide_program(), cfg, shards=2,
                make_monitors=lambda limit=limit: [StopAfter(limit)],
            )
            assert_identical(serial, sharded, f"stop@{limit}")
            assert m_serial[0].snapshot() == m_sharded[0].snapshot()

    def test_monitor_cut_false_stays_exhaustive(self):
        cfg = ModelConfig(relaxed=True)
        serial, sharded, m_serial, m_sharded = run_both(
            wide_program(), cfg, shards=2,
            make_monitors=lambda: [StopAfter(1)], monitor_cut=False,
        )
        assert not serial.stopped_early
        assert_identical(serial, sharded, "monitor_cut=False")
        assert m_serial[0].snapshot() == m_sharded[0].snapshot()

    def test_never_stopping_monitor(self):
        cfg = ModelConfig(relaxed=True)
        serial, sharded, m_serial, m_sharded = run_both(
            wide_program(), cfg, shards=2,
            make_monitors=lambda: [StopAfter(10**9)],
        )
        assert_identical(serial, sharded, "no-stop")
        assert m_serial[0].snapshot() == m_sharded[0].snapshot()

    def test_wdrf_reports_bit_identical(self):
        from repro.sekvm.ir_programs import (
            kcore_buggy_cases,
            kcore_verified_cases,
        )
        from repro.vrm.verifier import verify_wdrf

        cases = kcore_verified_cases(2)[:2] + kcore_buggy_cases(2)[:1]
        for case in cases:
            with shard_env(0):
                serial_report = verify_wdrf(case.spec)
            with shard_env(2):
                sharded_report = verify_wdrf(case.spec)
            assert sharded_report == serial_report


class TestCrashCleanup:
    def test_worker_exception_falls_back_and_unlinks(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected shard-worker failure")

        monkeypatch.setattr(shard, "_worker_body", boom)
        cfg = ModelConfig(relaxed=True)
        with shard_env(0):
            serial = explore(wide_program(), cfg)
        with shard_env(2):
            sharded = explore(wide_program(), cfg)
        assert_identical(serial, sharded, "worker-exception")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shard._LAST_FILTER_NAME)

    def test_worker_hard_crash_detected(self, monkeypatch):
        def die(*args, **kwargs):
            os._exit(17)  # no exception handler, no result message

        monkeypatch.setattr(shard, "_worker_body", die)
        monkeypatch.setattr(shard, "_CRASH_GRACE_SECONDS", 0.5)
        cfg = ModelConfig(relaxed=True)
        with shard_env(0):
            serial = explore(wide_program(), cfg)
        with shard_env(2):
            sharded = explore(wide_program(), cfg)
        assert_identical(serial, sharded, "worker-hard-crash")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shard._LAST_FILTER_NAME)

    def test_wedged_worker_times_out_and_falls_back(self, monkeypatch):
        # A worker that is alive but never reports (e.g. stuck in native
        # code) defeats the liveness poll; with REPRO_SHARD_TIMEOUT set,
        # the deadline aborts the fan-out and the serial fallback runs
        # instead of the parent polling the results queue forever.
        def wedge(*args, **kwargs):
            time.sleep(600)

        monkeypatch.setattr(shard, "_worker_body", wedge)
        monkeypatch.setattr(shard, "_CRASH_GRACE_SECONDS", 0.2)
        monkeypatch.setattr(shard, "_JOIN_TIMEOUT", 0.1)
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "0.3")
        cfg = ModelConfig(relaxed=True)
        with shard_env(0):
            serial = explore(wide_program(), cfg)
        begin = time.monotonic()
        with shard_env(2):
            sharded = explore(wide_program(), cfg)
        assert time.monotonic() - begin < 60  # bounded, no hang
        assert_identical(serial, sharded, "wedged-worker-timeout")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shard._LAST_FILTER_NAME)


class TestShardCheck:
    """The ``shard`` conformance oracle: sharded vs serial."""

    def test_cross_check_passes_on_real_runs(self):
        assert check_program(wide_program(), ("shard",)) == []

    def test_cross_check_catches_divergence(self, monkeypatch):
        def lying_shard_explore(program, cfg, observe_locs=None, por=True,
                                monitors=None, monitor_cut=True, jobs=2):
            return ExplorationResult(
                behaviors=frozenset(),  # drops every behavior
                complete=True,
                states_explored=1,
                cut_paths=0,
            )

        monkeypatch.setattr(shard, "shard_explore", lying_shard_explore)
        found = check_program(wide_program(), ("shard",))
        assert found and all(d.oracle == "shard" for d in found)
        assert "serial-only" in found[0].detail


class TestTraceEvents:
    def test_shard_events_emitted_in_parent(self):
        cfg = ModelConfig(relaxed=True)
        with shard_env(2), tracer.recording(max_events=500_000) as sink:
            explore(wide_program(), cfg)
        hits = sink.by_kind(tracer.VISITED_FILTER_HIT)
        aggregates = [e for e in hits if e.get("aggregate")]
        assert aggregates, "orchestrator must emit the aggregate event"
        # Converging interleavings guarantee cross-shard duplicates.
        assert aggregates[-1].get("hits") > 0

    def test_no_events_without_sink(self):
        # The SINK-is-None guard: a sharded run with no sink installed
        # must not fail and must emit nothing (tracer.SINK stays None).
        cfg = ModelConfig(relaxed=True)
        assert tracer.SINK is None
        with shard_env(2):
            result = explore(wide_program(), cfg)
        assert result.complete


class TestPlanAndKnobs:
    def test_resolve_shard_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        assert resolve_shard_jobs() == 1
        monkeypatch.setenv("REPRO_SHARD", "")
        assert resolve_shard_jobs() == 1
        monkeypatch.setenv("REPRO_SHARD", "0")
        assert resolve_shard_jobs() == 1
        monkeypatch.setenv("REPRO_SHARD", "3")
        assert resolve_shard_jobs() == 3
        monkeypatch.setenv("REPRO_SHARD", "-1")
        assert resolve_shard_jobs() == available_cpus()
        monkeypatch.setenv("REPRO_SHARD", "garbage")
        assert resolve_shard_jobs() == 1

    def test_resolve_shard_jobs_explicit(self):
        assert resolve_shard_jobs(0) == 1
        assert resolve_shard_jobs(4) == 4
        assert resolve_shard_jobs(-1) == available_cpus()

    def test_shard_timeout_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_TIMEOUT", raising=False)
        assert shard._shard_timeout() == 0.0
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "2.5")
        assert shard._shard_timeout() == 2.5
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "-3")
        assert shard._shard_timeout() == 0.0
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "garbage")
        assert shard._shard_timeout() == 0.0

    def test_serial_requested_plan_has_shard_fields(self):
        plan = plan_jobs(None, 10, shard_jobs=4)
        assert plan.workers == 1
        assert plan.reason == "serial-requested"
        assert plan.shard_jobs == 4
        assert plan.shard_requested == 4
        assert plan.shard_reason == "intra-exploration"

    def test_corpus_parallel_wins_over_shards(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        plan = plan_jobs(4, 100, shard_jobs=4)
        assert plan.workers == 4
        assert plan.shard_jobs == 1
        assert plan.shard_reason == "corpus-parallel"

    def test_small_spec_declines_shards(self):
        plan = plan_jobs(None, 1, shard_jobs=4, per_item_states=100)
        assert plan.shard_jobs == 1
        assert plan.shard_reason == "spec-too-small"

    def test_legacy_jobplan_construction_still_works(self):
        # test_obs monkeypatches plan_jobs with 5-field constructions;
        # the shard fields must default.
        plan = JobPlan(1, 1, 1, 0, "serial-requested")
        assert plan.shard_jobs == 1
        assert plan.shard_reason == "unsharded"

    def test_maybe_shard_declines_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        cfg = ModelConfig(relaxed=True)
        assert shard.maybe_shard_explore(
            wide_program(), cfg, None, False, None, True
        ) is None
        monkeypatch.setenv("REPRO_SHARD", "1")
        assert shard.maybe_shard_explore(
            wide_program(), cfg, None, False, None, True
        ) is None
