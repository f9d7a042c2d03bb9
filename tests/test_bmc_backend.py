"""Tier-1 tests for the SAT/BMC verification backend.

Three layers of agreement evidence, mirroring the conformance
discipline the exploration optimizations use:

* encoder edge cases (empty threads, depth bounds, fragment gates),
* verdict equality against exploration over the full litmus catalog,
  the wDRF checkers, and a fuzzed genome sweep,
* solver statistics and the backend axis of the cache keys.
"""

import pytest

from repro.conformance import build, check_genome, derive_rng, random_genome
from repro.conformance.oracles import check_program
from repro.ir import PTKind, ThreadBuilder, build_program
from repro.litmus.catalog import classic_corpus, full_corpus
from repro.litmus.runner import SC_CFG, rm_config, run_litmus
from repro.memory.cache import bmc_query_key, cached_explore, exploration_key
from repro.memory.trace import ExecutionTrace
from repro.smt import (
    BmcStats,
    ProgramEncoding,
    Unsupported,
    bmc_behaviors,
    bmc_condition_results,
    bmc_explore,
    bmc_supported,
    bmc_witness_trace,
)
from repro.smt.encode import quick_unsupported
from repro.vrm import verify_wdrf
from repro.vrm.conditions import PassRequest, WDRFCondition
from repro.vrm.isolation import plan_memory_isolation
from repro.vrm.verifier import VerifyStats, WDRFSpec
from repro.vrm.write_once import WriteOnceMonitor
from tests.test_vrm_isolation_theorem import KDATA, mixed_program

RM_CFG = rm_config(2)

VIOLATING_LOC = 0x400


def violating_pt_program():
    """Two CPUs write the same kernel PT entry: write-once must fail."""
    threads = []
    init = {VIOLATING_LOC: 0}
    for t in range(2):
        tb = ThreadBuilder(t)
        tb.store(VIOLATING_LOC, t + 1, pt_kind=PTKind.KERNEL)
        threads.append(tb)
    return build_program(
        threads, initial_memory=init, name="pt-write-twice"
    )


def staged_pt_program():
    """Private store first, conflicting store second (depth-bound prey)."""
    threads = []
    init = {VIOLATING_LOC: 0}
    for t in range(2):
        tb = ThreadBuilder(t)
        private = 0x500 + t
        tb.store(private, 1, pt_kind=PTKind.KERNEL)
        init[private] = 0
        tb.store(VIOLATING_LOC, t + 1, pt_kind=PTKind.KERNEL)
        threads.append(tb)
    return build_program(
        threads, initial_memory=init, name="pt-write-twice-staged"
    )


def write_once_requests(program, cfg):
    locs = sorted(program.initial_memory)
    monitor = WriteOnceMonitor(dict(program.initial_memory), locs)
    return [
        ("write_once", PassRequest(cfg=cfg, observe_locs=(), monitor=monitor))
    ]


class TestEncoderEdges:
    def test_accessless_thread_yields_single_initial_behavior(self):
        tb = ThreadBuilder(0)
        tb.barrier("full")
        program = build_program(
            [tb], initial_memory={0x10: 7}, name="no-accesses"
        )
        got = bmc_behaviors(program, SC_CFG, cache=False)
        want = cached_explore(program, SC_CFG, cache=False).behaviors
        assert got == want
        (behavior,) = got
        assert dict(behavior.memory) == {0x10: 7}

    def test_depth_zero_refuses_behavior_enumeration(self, monkeypatch):
        monkeypatch.setenv("REPRO_BMC_DEPTH", "0")
        with pytest.raises(Unsupported):
            bmc_behaviors(violating_pt_program(), SC_CFG, cache=False)

    def test_depth_bound_reports_non_exhaustive_clean_verdict(
        self, monkeypatch
    ):
        program = staged_pt_program()
        monkeypatch.setenv("REPRO_BMC_DEPTH", "1")
        monkeypatch.delenv("REPRO_BMC_INDUCTION", raising=False)
        results = bmc_condition_results(
            program, SC_CFG, write_once_requests(program, SC_CFG),
            cache=False,
        )
        verdict = results["write_once"]
        # The conflicting second stores are beyond the bound: clean,
        # but only up to depth 1.
        assert verdict.holds and not verdict.exhaustive

    def test_induction_ladder_recovers_the_violation(self, monkeypatch):
        program = staged_pt_program()
        monkeypatch.setenv("REPRO_BMC_DEPTH", "1")
        monkeypatch.setenv("REPRO_BMC_INDUCTION", "1")
        results = bmc_condition_results(
            program, SC_CFG, write_once_requests(program, SC_CFG),
            cache=False,
        )
        verdict = results["write_once"]
        assert not verdict.holds and verdict.exhaustive
        assert any("written 2 times" in v for v in verdict.violations)

    def test_atomics_are_outside_the_fragment(self):
        tb = ThreadBuilder(0)
        tb.faa("r0", 0x10)
        program = build_program(
            [tb], initial_memory={0x10: 0}, name="atomic"
        )
        assert quick_unsupported(program, SC_CFG) is not None
        assert bmc_supported(program, SC_CFG) is not None
        with pytest.raises(Unsupported):
            ProgramEncoding(program, SC_CFG)

    def test_unknown_monitor_kind_is_gated(self):
        class Odd:
            kind = "weird"

        program = violating_pt_program()
        reason = bmc_supported(program, SC_CFG, [Odd()])
        assert reason is not None and "weird" in reason

    def test_event_cap_is_enforced(self):
        tb = ThreadBuilder(0)
        for i in range(40):
            tb.store(0x1000 + i, 1)
        program = build_program(
            [tb],
            initial_memory={0x1000 + i: 0 for i in range(40)},
            name="too-big",
        )
        assert quick_unsupported(program, SC_CFG) is not None


class TestLitmusAgreement:
    def test_full_catalog_behavior_sets_agree(self):
        compared = 0
        for test in full_corpus():
            observe = sorted(loc for loc, _ in test.memory_condition)
            for cfg in (SC_CFG, rm_config(test.max_promises)):
                if bmc_supported(test.program, cfg) is not None:
                    continue
                try:
                    solved = bmc_explore(
                        test.program, cfg, observe, cache=False
                    )
                except Unsupported:
                    continue
                explored = cached_explore(
                    test.program, cfg, observe_locs=observe
                )
                assert solved.behaviors == explored.behaviors, test.name
                assert solved.complete and solved.states_explored == 0
                compared += 1
        # The sweep must stay substantial, or the oracle is vacuous.
        assert compared >= 40

    def test_forced_bmc_passes_classic_tests(self):
        for test in classic_corpus()[:8]:
            outcome = run_litmus(test, cache=False, backend="bmc")
            assert outcome.passed, outcome.describe()

    def test_backend_check_mode_agrees_end_to_end(self):
        for test in classic_corpus()[:4]:
            assert check_program(
                test.program, ("backend",),
                sc=SC_CFG, rm=rm_config(test.max_promises),
            ) == [], test.name
            outcome = run_litmus(test, cache=False, backend="bmc")
            assert outcome.passed, outcome.describe()


class TestConditionBackend:
    def _verify(self, spec, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
        return verify_wdrf(spec)

    def test_bmc_and_exploration_verdicts_match(self, monkeypatch):
        spec = WDRFSpec(
            program=violating_pt_program(),
            kernel_pt_locs=(VIOLATING_LOC,),
        )
        explored = self._verify(spec, monkeypatch, "explore")
        solved = self._verify(spec, monkeypatch, "bmc")
        assert set(explored.results) == set(solved.results)
        for cond, want in explored.results.items():
            got = solved.results[cond]
            assert got.holds == want.holds, cond
            assert got.exhaustive == want.exhaustive, cond
        w = solved.results[WDRFCondition.WRITE_ONCE_KERNEL_MAPPING]
        assert not w.holds
        # Violation strings mirror the monitor's audit format exactly.
        assert w.violations == explored.results[
            WDRFCondition.WRITE_ONCE_KERNEL_MAPPING
        ].violations

    def test_check_mode_runs_both_and_agrees(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bmc")
        monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
        spec = WDRFSpec(
            program=violating_pt_program(),
            kernel_pt_locs=(VIOLATING_LOC,),
        )
        assert check_program(spec.program, ("backend",), spec=spec) == []
        stats = VerifyStats()
        report = verify_wdrf(spec, collect=stats)
        assert not report.all_hold
        assert stats.bmc_passes >= 1
        assert stats.as_dict()["bmc_passes"] == stats.bmc_passes
        # The memory-isolation pass is planned only beside a user
        # thread: clean, and with a user store to kernel memory.
        for user_writes_kernel in (False, True):
            mixed = WDRFSpec(
                program=mixed_program(user_writes_kernel=user_writes_kernel)
            )
            assert check_program(mixed.program, ("backend",),
                                 spec=mixed) == []
            stats = VerifyStats()
            isolation = verify_wdrf(mixed, collect=stats).results[
                WDRFCondition.WEAK_MEMORY_ISOLATION
            ]
            assert stats.bmc_passes == 2
            assert (
                "user CPU 1 wrote kernel location 0x100 (value 0x9)"
                in isolation.violations
            ) is user_writes_kernel

    def test_check_mode_catches_a_flipped_verdict(self, monkeypatch):
        # A solver that answers "holds" for every condition must be
        # caught by the oracle's verdict comparison.
        from dataclasses import replace

        from repro.smt import backend

        honest = backend.bmc_condition_results

        def optimistic(*args, **kwargs):
            return {
                name: replace(result, holds=True, violations=())
                for name, result in honest(*args, **kwargs).items()
            }

        monkeypatch.setattr(backend, "bmc_condition_results", optimistic)
        monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
        spec = WDRFSpec(
            program=violating_pt_program(),
            kernel_pt_locs=(VIOLATING_LOC,),
        )
        found = check_program(spec.program, ("backend",), spec=spec)
        assert any("write_once" in d.detail for d in found), found

    def test_witness_replays_into_operational_trace(self):
        program = violating_pt_program()
        monitor = WriteOnceMonitor({VIOLATING_LOC: 0}, [VIOLATING_LOC])
        trace = bmc_witness_trace(program, SC_CFG, monitor)
        assert isinstance(trace, ExecutionTrace)
        assert trace.events
        hits = [
            msg for msg in trace.final_state.memory
            if msg.loc == VIOLATING_LOC
        ]
        assert len(hits) == 2  # the double write the solver found

        program = mixed_program(user_writes_kernel=True)
        monitor = plan_memory_isolation(program).monitor
        trace = bmc_witness_trace(program, SC_CFG, monitor)
        assert [(msg.tid, msg.loc) for msg in trace.final_state.memory] == [
            (1, KDATA),  # the user store the solver found
        ]

    def test_witness_is_none_for_trivial_kinds(self):
        class Trivial:
            kind = "drf_kernel"

        assert (
            bmc_witness_trace(violating_pt_program(), SC_CFG, Trivial())
            is None
        )


class TestCacheAxis:
    def test_backend_axis_separates_cache_keys(self):
        program = violating_pt_program()
        base = exploration_key(program, SC_CFG, None, False, True)
        bmc = exploration_key(
            program, SC_CFG, None, False, True, backend="bmc"
        )
        assert base != bmc

    def test_bmc_query_keys_depend_on_the_query(self):
        program = violating_pt_program()
        a = bmc_query_key(program, SC_CFG, (), "behaviors")
        b = bmc_query_key(program, SC_CFG, (), "conditions:x")
        assert a != b


class TestFuzzedAgreement:
    @pytest.mark.parametrize("profile", ["plain", "fenced"])
    def test_backend_oracle_over_fuzzed_genomes(self, profile):
        # >= 50 genomes across the two encodable profiles (28 each).
        for i in range(28):
            genome = random_genome(
                profile, derive_rng(20260808, "bmc", profile, i),
                name=f"bmc-{i}",
            )
            disagreements = check_genome(genome, oracles=("backend",))
            assert not disagreements, (
                genome,
                [d.describe() for d in disagreements],
            )


class TestStats:
    def test_bmc_stats_accumulate_across_queries(self):
        stats = BmcStats()
        program = violating_pt_program()
        bmc_behaviors(program, SC_CFG, cache=False, stats=stats)
        assert stats.encodings == 1
        assert stats.clauses > 0 and stats.variables > 0
        assert stats.outcomes >= 1
        d = stats.as_dict()
        assert d["encodings"] == 1 and d["solve_calls"] >= 1

    def test_every_solve_call_is_answered(self):
        """Every encodable catalog query, behavior enumeration and
        condition verdicts alike: each solve call is counted as exactly
        one sat or unsat answer, and each solved catalog query as one
        encoding."""
        stats = BmcStats()
        queries = 0
        for test in full_corpus():
            observe = sorted(loc for loc, _ in test.memory_condition)
            for cfg in (SC_CFG, rm_config(test.max_promises)):
                if bmc_supported(test.program, cfg) is not None:
                    continue
                try:
                    bmc_explore(
                        test.program, cfg, observe, cache=False, stats=stats
                    )
                except Unsupported:
                    continue
                queries += 1
        assert queries >= 40 and stats.encodings == queries
        assert stats.clauses > 0 and stats.outcomes > 0
        program = violating_pt_program()
        bmc_condition_results(
            program, SC_CFG, write_once_requests(program, SC_CFG),
            cache=False, stats=stats,
        )
        assert stats.unsat_answers > 0 and stats.sat_answers > 0
        assert stats.sat_answers + stats.unsat_answers == stats.solve_calls
