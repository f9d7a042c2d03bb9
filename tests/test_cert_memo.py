"""Certification memoization: bit-identical results, cheaper search.

The contract under test: ``CertMemo`` (and the bisect-based pair-tuple
primitives and static promisability pruning underneath it) is a pure
optimization.  Behavior sets AND the number of states explored must be
identical with ``REPRO_CERT_MEMO=0`` and ``=1`` — the ``memo``
conformance oracle, run here on a fuzzed population of random programs
and a seeded wrong memo key; budget-cut certification searches must be
surfaced, never silently absorbed.
"""

from __future__ import annotations

import pytest

from repro.conformance.oracles import check_program
from repro.ir import ThreadBuilder, build_program
from repro.litmus.catalog import full_corpus
from repro.litmus.generate import GeneratorConfig, random_program
from repro.litmus.runner import rm_config
from repro.memory import explore, explore_or_raise
from repro.memory.datatypes import EngineStats
from repro.memory.exploration import ExplorationBudgetExceeded
from repro.memory.semantics import CertMemo, ModelConfig, ProgramCache
from repro.memory.state import tdel, tget, tset
from repro.parallel.pool import plan_jobs


def _explore_both_ways(program, cfg, monkeypatch):
    """Explore once with the memo and once without; return both results."""
    monkeypatch.setenv("REPRO_CERT_MEMO", "1")
    with_memo = explore(program, cfg, por=True)
    monkeypatch.setenv("REPRO_CERT_MEMO", "0")
    without_memo = explore(program, cfg, por=True)
    return with_memo, without_memo


# ---------------------------------------------------------------------------
# memoization is invisible: the ``memo`` oracle on fuzzed programs and a
# seeded wrong memo key (the litmus catalog runs in the registry sweep,
# tests/test_differential.py)
# ---------------------------------------------------------------------------

def test_memo_invariance_generated_programs():
    """~50 seeded random programs agree behavior-for-behavior and
    state-for-state with the memo on and off."""
    gen_cfg = GeneratorConfig(n_threads=2, min_ops=2, max_ops=3)
    for seed in range(50):
        program = random_program(seed, gen_cfg)
        assert check_program(program, ("memo",)) == [], seed


def test_memo_cross_check_mode(monkeypatch):
    """The ``memo`` oracle catches a memo key that forgets what
    certification depends on: with the timeline dropped from the key,
    a verdict certified against one memory is replayed against another,
    which changes the relaxed search on the catalog's promise tests."""
    names = {"LB+one-data", "WRC+deps", "WRC", "ISA2", "ISA2+plain"}
    promising = [t for t in full_corpus() if t.name in names]
    assert len(promising) == len(names)
    for test in promising:
        assert check_program(
            test.program, ("memo",), rm=rm_config(test.max_promises)
        ) == [], test.name

    def forgetful_key(self, state, tidx):
        return (tidx, state.threads[tidx])

    monkeypatch.setattr(CertMemo, "thread_key", forgetful_key)
    caught = [
        test.name for test in promising
        if check_program(
            test.program, ("memo",), rm=rm_config(test.max_promises)
        )
    ]
    assert caught, "a timeline-blind memo key survived the memo oracle"


def test_engine_stats_reported():
    """A promise-exercising exploration reports stats, with memo hits."""
    x, y = 0x10, 0x20
    t0 = ThreadBuilder(0)
    t0.load("r0", y).store(x, 1)
    t1 = ThreadBuilder(1)
    t1.load("r1", x).store(y, 1)
    program = build_program(
        [t0, t1],
        observed={0: ["r0"], 1: ["r1"]},
        initial_memory={x: 0, y: 0},
    )
    result = explore(program, ModelConfig(relaxed=True), por=True)
    stats = result.stats
    assert stats is not None
    assert stats.certify_calls > 0
    assert stats.candidate_calls > 0
    assert stats.certify_memo_hits > 0  # revisited contexts must hit
    assert stats.successors_generated >= result.states_explored - 1
    assert stats.cert_budget_hits == 0
    round_trip = stats.as_dict()
    assert round_trip["certify_calls"] == stats.certify_calls
    total = EngineStats()
    total.add(stats)
    total.add(stats)
    assert total.certify_calls == 2 * stats.certify_calls


# ---------------------------------------------------------------------------
# budget-cut certification is surfaced, not silently absorbed
# ---------------------------------------------------------------------------

def _promising_program():
    x, y = 0x10, 0x20
    t0 = ThreadBuilder(0)
    t0.store(x, 1).store(y, 1)
    t1 = ThreadBuilder(1)
    t1.load("a", y).load("b", x)
    return build_program(
        [t0, t1],
        observed={1: ["a", "b"]},
        initial_memory={x: 0, y: 0},
    )


def test_cert_budget_hit_marks_incomplete():
    """A certification search cut by ``cert_max_states`` may silently
    shrink the behavior set, so the exploration must refuse to call
    itself complete."""
    cfg = ModelConfig(relaxed=True, cert_max_states=1)
    result = explore(_promising_program(), cfg, por=True)
    assert result.stats is not None
    assert result.stats.cert_budget_hits > 0
    assert not result.complete


def test_cert_budget_hit_reported_by_explore_or_raise():
    cfg = ModelConfig(relaxed=True, cert_max_states=1)
    with pytest.raises(ExplorationBudgetExceeded) as excinfo:
        explore_or_raise(_promising_program(), cfg)
    message = str(excinfo.value)
    assert "certification searches hit" in message
    assert "under-approximation" in message


def test_cert_budget_hits_invariant_under_memo(monkeypatch):
    """Replayed memo entries re-count their budget cut, so the counter
    is identical with the memo on and off."""
    cfg = ModelConfig(relaxed=True, cert_max_states=1)
    with_memo, without_memo = _explore_both_ways(
        _promising_program(), cfg, monkeypatch
    )
    assert with_memo.stats.cert_budget_hits > 0
    assert (
        with_memo.stats.cert_budget_hits
        == without_memo.stats.cert_budget_hits
    )


# ---------------------------------------------------------------------------
# static promisability pruning
# ---------------------------------------------------------------------------

def test_promisable_from_tracks_remaining_stores():
    x, y = 0x10, 0x20
    t0 = ThreadBuilder(0)
    t0.store(x, 1).load("r0", y)
    t1 = ThreadBuilder(1)
    t1.load("a", x).load("b", y)
    program = build_program(
        [t0, t1],
        observed={0: ["r0"], 1: ["a", "b"]},
        initial_memory={x: 0, y: 0},
    )
    cache = ProgramCache(program)
    assert cache.promisable_from(0, 0)       # store still ahead
    assert not cache.promisable_from(0, 1)   # only the load remains
    assert not cache.promisable_from(1, 0)   # load-only thread
    assert not cache.promisable_from(0, 99)  # out of range: halted


# ---------------------------------------------------------------------------
# bisect-based pair-tuple primitives
# ---------------------------------------------------------------------------

def test_tget_edge_cases():
    assert tget((), "x", 0) == 0
    assert tget((), "x", None) is None
    pairs = (("a", 1), ("c", 3))
    assert tget(pairs, "a") == 1
    assert tget(pairs, "c") == 3
    assert tget(pairs, "b", 42) == 42   # between entries
    assert tget(pairs, "0", 42) == 42   # before the head
    assert tget(pairs, "z", 42) == 42   # past the tail


def test_tset_insert_positions_and_replace():
    assert tset((), "m", 1) == (("m", 1),)
    pairs = (("b", 2), ("d", 4))
    assert tset(pairs, "a", 1) == (("a", 1), ("b", 2), ("d", 4))   # head
    assert tset(pairs, "c", 3) == (("b", 2), ("c", 3), ("d", 4))   # middle
    assert tset(pairs, "e", 5) == (("b", 2), ("d", 4), ("e", 5))   # tail
    assert tset(pairs, "b", 9) == (("b", 9), ("d", 4))             # replace
    assert pairs == (("b", 2), ("d", 4))  # inputs are never mutated


def test_tdel_edge_cases():
    assert tdel((), "x") == ()
    pairs = (("a", 1), ("b", 2), ("c", 3))
    assert tdel(pairs, "a") == (("b", 2), ("c", 3))  # head
    assert tdel(pairs, "b") == (("a", 1), ("c", 3))  # middle
    assert tdel(pairs, "c") == (("a", 1), ("b", 2))  # tail
    assert tdel(pairs, "z") == pairs                 # absent: no-op
    assert tdel((("k", 0),), "k") == ()


def test_tset_keeps_sorted_integer_keys():
    pairs = ()
    for key in (5, 1, 3, 2, 4):
        pairs = tset(pairs, key, key * 10)
    assert pairs == ((1, 10), (2, 20), (3, 30), (4, 40), (5, 50))
    assert tget(pairs, 3) == 30
    assert tdel(pairs, 3) == ((1, 10), (2, 20), (4, 40), (5, 50))


# ---------------------------------------------------------------------------
# auto-jobs planning
# ---------------------------------------------------------------------------

def test_plan_jobs_serial_request():
    plan = plan_jobs(1, 100)
    assert plan.workers == 1 and plan.reason == "serial-requested"
    assert plan_jobs(None, 100).workers == 1
    assert plan_jobs(0, 100).workers == 1


def test_plan_jobs_degrades_tiny_batches():
    plan = plan_jobs(8, 1)
    assert plan.workers == 1 and plan.reason == "batch-too-small"


def test_plan_jobs_single_cpu(monkeypatch):
    import repro.parallel.pool as pool

    monkeypatch.setattr(pool.os, "cpu_count", lambda: 1)
    plan = plan_jobs(8, 100)
    assert plan.workers == 1 and plan.reason == "single-cpu"


def test_plan_jobs_fork_amortization(monkeypatch):
    import repro.parallel.pool as pool

    monkeypatch.setattr(pool.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(pool.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    plan = plan_jobs(8, 6)  # 6 items cannot feed 8 workers 2 items each
    assert plan.reason == "fork-amortization"
    assert plan.workers == 3
    assert plan_jobs(8, 2).workers == 1  # degenerate: serial


def test_plan_jobs_parallel(monkeypatch):
    import repro.parallel.pool as pool

    monkeypatch.setattr(pool.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(pool.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    plan = plan_jobs(4, 100)
    assert plan.workers == 4 and plan.reason == "parallel"
    capped = plan_jobs(32, 100)
    assert capped.workers == 8 and capped.reason == "capped-at-cpus"
