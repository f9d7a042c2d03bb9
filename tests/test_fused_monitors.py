"""Streaming monitors and fused wDRF verification passes.

The invariants: fusion and early exit may change cost, never verdicts —
fused reports are bit-identical to per-condition ones (the ``fuse``
conformance oracle), monitor-cut searches are cheaper but
still definitive, and the pass planner collapses the standard spec to
at most two explorations."""

import pytest

from repro.conformance.oracles import check_program
from repro.ir import Reg, ThreadBuilder, build_program
from repro.memory import ModelConfig, explore, explore_or_raise
from repro.memory.datatypes import ExplorationMonitor
from repro.memory.pushpull import pushpull_config
from repro.sekvm.ir_programs import kcore_buggy_cases, kcore_verified_cases
from repro.sekvm.locks import LockAddrs, emit_acquire, emit_release
from repro.vrm import WDRFSpec, plan_passes, verify_wdrf
from repro.vrm.drf_kernel import DRFKernelMonitor
from repro.vrm.verifier import VerifyStats

LOCK = LockAddrs(ticket=0x10, now=0x11)
COUNTER = 0x20
X = 0x30


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    """Every exploration in these tests must actually run."""
    monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
    monkeypatch.setenv("REPRO_EXPLORE_MEMO", "0")


def locked_counter_spec(correct=True):
    threads = []
    for tid in range(2):
        b = ThreadBuilder(tid)
        emit_acquire(b, LOCK, protects=[COUNTER], correct=correct)
        b.load("v", COUNTER)
        b.store(COUNTER, Reg("v") + 1)
        emit_release(b, LOCK, protects=[COUNTER], correct=correct)
        threads.append(b)
    init = dict(LOCK.initial_memory())
    init[COUNTER] = 0
    program = build_program(
        threads,
        observed={tid: ["v"] for tid in range(2)},
        initial_memory=init,
        name="locked_counter" if correct else "broken_counter",
    )
    return WDRFSpec(program=program, shared_locs=(COUNTER,))


def sekvm_spec_corpus():
    cases = list(kcore_verified_cases(4))[:2] + list(kcore_buggy_cases(4))[:2]
    return [(case.name, case.spec) for case in cases]


class TestFusedBitIdentity:
    @pytest.mark.parametrize(
        "name,spec",
        sekvm_spec_corpus() + [
            ("locked_counter", locked_counter_spec(True)),
            ("broken_counter", locked_counter_spec(False)),
        ],
    )
    def test_fused_equals_per_condition(self, name, spec):
        assert check_program(spec.program, ("fuse",), spec=spec) == [], name

    def test_fuse_check_mode_passes(self):
        spec = locked_counter_spec(False)
        assert check_program(spec.program, ("fuse",), spec=spec) == []
        report = verify_wdrf(spec)
        assert not report.all_hold  # the broken lock is still caught


class TestPassPlanner:
    def test_drf_and_barrier_share_a_pass(self):
        units = plan_passes(locked_counter_spec(), fuse=True)
        assert ("drf_kernel", "no_barrier_misuse") in units

    def test_unfused_is_six_singletons(self):
        units = plan_passes(locked_counter_spec(), fuse=False)
        assert len(units) == 6
        assert all(len(u) == 1 for u in units)

    def test_fused_spec_needs_at_most_two_explorations(self):
        for name, spec in sekvm_spec_corpus():
            stats = VerifyStats()
            verify_wdrf(spec, fuse=True, collect=stats)
            assert stats.explorations <= 2, name

    def test_fusion_explores_fewer_states(self):
        for correct in (True, False):
            spec = locked_counter_spec(correct)
            fused, unfused = VerifyStats(), VerifyStats()
            verify_wdrf(spec, fuse=True, collect=fused)
            verify_wdrf(spec, fuse=False, collect=unfused)
            assert fused.explorations < unfused.explorations
            assert fused.states_explored <= unfused.states_explored
            assert fused.fused_conditions >= 1


class TestEarlyExit:
    def test_monitor_stop_cuts_search(self):
        spec = locked_counter_spec(correct=False)
        cfg = pushpull_config(
            relaxed=True, owned_access_required=frozenset(spec.shared_locs)
        )
        full = explore(spec.program, cfg, observe_locs=[])
        monitor = DRFKernelMonitor()
        cut = explore(spec.program, cfg, observe_locs=[], monitors=[monitor])
        assert monitor.stopped and monitor.violations
        assert cut.stopped_early
        assert cut.complete  # a chosen exit, not a budget cut
        assert cut.states_explored < full.states_explored

    def test_clean_program_never_stops_early(self):
        spec = locked_counter_spec(correct=True)
        cfg = pushpull_config(
            relaxed=True, owned_access_required=frozenset(spec.shared_locs)
        )
        monitor = DRFKernelMonitor()
        result = explore(
            spec.program, cfg, observe_locs=[], monitors=[monitor]
        )
        assert not monitor.stopped and not result.stopped_early
        assert monitor.states_seen <= result.states_explored

    def test_stopped_early_passes_the_raising_wrapper(self):
        spec = locked_counter_spec(correct=False)
        cfg = pushpull_config(
            relaxed=True, owned_access_required=frozenset(spec.shared_locs)
        )
        result = explore_or_raise(
            spec.program, cfg, observe_locs=[], monitors=[DRFKernelMonitor()]
        )
        assert result.stopped_early  # complete, so no raise

    def test_monitor_cut_off_is_exhaustive_with_frozen_verdict(self):
        """Legacy mode: the search runs to exhaustion, but a stopped
        monitor's counters freeze at the same point as in cut mode."""
        spec = locked_counter_spec(correct=False)
        cfg = pushpull_config(
            relaxed=True, owned_access_required=frozenset(spec.shared_locs)
        )
        cut_monitor = DRFKernelMonitor()
        cut = explore(
            spec.program, cfg, observe_locs=[], monitors=[cut_monitor]
        )
        full_monitor = DRFKernelMonitor()
        full = explore(
            spec.program, cfg, observe_locs=[],
            monitors=[full_monitor], monitor_cut=False,
        )
        assert not full.stopped_early
        assert full.states_explored > cut.states_explored
        assert full_monitor.snapshot() == cut_monitor.snapshot()

    def test_unfused_verify_is_exhaustive(self):
        """``fuse=False`` is the legacy pipeline: per-condition passes
        with no early exit, so a buggy spec costs strictly more there."""
        spec = locked_counter_spec(correct=False)
        fused, unfused = VerifyStats(), VerifyStats()
        verify_wdrf(spec, fuse=True, collect=fused)
        verify_wdrf(spec, fuse=False, collect=unfused)
        assert fused.stopped_early >= 1
        assert unfused.stopped_early == 0
        assert unfused.states_explored > fused.states_explored


class TestExploreForwarding:
    def test_keep_terminal_states_is_forwarded(self):
        b = ThreadBuilder(0)
        b.store(X, 1)
        program = build_program([b], initial_memory={X: 0})
        result = explore_or_raise(
            program, ModelConfig(relaxed=False), keep_terminal_states=True
        )
        assert result.terminal_states

    def test_por_flag_is_forwarded(self):
        b = ThreadBuilder(0)
        b.store(X, 1)
        program = build_program([b], initial_memory={X: 0})
        por_on = explore_or_raise(program, ModelConfig(relaxed=False), por=True)
        por_off = explore_or_raise(
            program, ModelConfig(relaxed=False), por=False
        )
        assert por_on.behaviors == por_off.behaviors


class TestPORGate:
    def test_small_sc_program_skips_plan(self):
        b = ThreadBuilder(0)
        b.store(X, 1)
        program = build_program([b], initial_memory={X: 0})
        result = explore(program, ModelConfig(relaxed=False), por=True)
        assert result.stats.por_gate_skips == 1
        assert result.stats.por_ample_hits == 0

    def test_large_sc_program_still_reduces(self):
        threads = []
        for tid in range(2):
            b = ThreadBuilder(tid)
            for _ in range(8):
                b.mov("r0", 1)
            b.store(X + tid, 1).load("r1", X + tid)
            threads.append(b)
        program = build_program(
            [threads[0], threads[1]],
            initial_memory={X: 0, X + 1: 0},
        )
        result = explore(program, ModelConfig(relaxed=False), por=True)
        assert result.stats.por_gate_skips == 0
        assert result.stats.por_ample_hits > 0

    def test_relaxed_is_never_gated(self):
        b = ThreadBuilder(0)
        b.store(X, 1)
        program = build_program([b], initial_memory={X: 0})
        result = explore(program, ModelConfig(relaxed=True), por=True)
        assert result.stats.por_gate_skips == 0
