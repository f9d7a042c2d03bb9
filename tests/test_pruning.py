"""Pruning in the Arm explorer: store-reachability cuts of the nested
certification and candidate searches, doomed-state pruning of the outer
DFS, and the exact state counts the pruning reductions give.

The contract under test:

* the nested certification searches stop at states from which no
  fulfilling store is reachable,
* the outer DFS drops doomed successors (a promise no reachable store
  can fulfil, or one the thread's own views have passed, and no
  reachable panic) and nothing else: not under push/pull,
  not while a panic is reachable, not while a ``VStore`` can fulfil,
* ``promise_heavy`` and ``gen_vmid`` explore exactly the pinned number
  of states, and ``promise_heavy``'s behaviors agree with the SAT
  backend.
"""

from __future__ import annotations

import pytest

from repro.conformance.oracles import check_program
from repro.ir import ThreadBuilder, build_program
from repro.ir.expr import Reg
from repro.ir.program import MMUConfig
from repro.litmus import catalog
from repro.litmus.catalog import promise_heavy_program
from repro.litmus.runner import litmus_configs
from repro.memory import semantics
from repro.memory.exploration import explore
from repro.memory.semantics import (
    PROMISING_ARM,
    PUSH_PULL_PROMISING,
    ModelConfig,
    ProgramCache,
    _certify_search,
    _collect_search,
)
from repro.memory.state import initial_state
from repro.smt import bmc_behaviors

X, Y, Z = 0x10, 0x20, 0x30


# ---------------------------------------------------------------------------
# store-reachability pruning of the nested searches
# ---------------------------------------------------------------------------

def _count_steps(monkeypatch):
    calls = []
    real = semantics.execute_instruction

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(semantics, "execute_instruction", counting)
    return calls


def _loads_after_store_program():
    t0 = ThreadBuilder(0).store(X, 1).load("a", Y).load("b", Z)
    return build_program([t0], initial_memory={X: 0, Y: 0, Z: 0})


class TestPruning:
    def test_certify_stops_where_no_store_can_fulfil(self, monkeypatch):
        program = _loads_after_store_program()
        cache = ProgramCache(program)
        state = initial_state(1)
        # A promise outstanding with only loads left: unfulfillable.
        promised = state.append_message(
            semantics.Message(1, X, 1, 0, True)
        )
        ctx = promised.threads[0]._replace(pc=1, promises=(1,))
        promised = promised.with_thread(0, ctx)
        calls = _count_steps(monkeypatch)
        verdict, hit_budget = _certify_search(
            cache, promised, 0, PROMISING_ARM, None
        )
        assert (verdict, hit_budget) == (False, False)
        assert calls == []

    def test_certify_still_expands_toward_a_store(self, monkeypatch):
        program = _loads_after_store_program()
        cache = ProgramCache(program)
        state = initial_state(1)
        promised = state.append_message(semantics.Message(1, X, 1, 0, True))
        promised = promised.with_thread(
            0, promised.threads[0]._replace(promises=(1,))
        )
        calls = _count_steps(monkeypatch)
        verdict, _ = _certify_search(cache, promised, 0, PROMISING_ARM, None)
        assert verdict is True
        assert calls

    def test_collect_stops_where_no_store_is_reachable(self, monkeypatch):
        program = _loads_after_store_program()
        cache = ProgramCache(program)
        state = initial_state(1)
        state = state.with_thread(0, state.threads[0]._replace(pc=1))
        calls = _count_steps(monkeypatch)
        candidates, hit_budget = _collect_search(
            cache, state, 0, PROMISING_ARM, None
        )
        assert candidates == frozenset() and not hit_budget
        assert calls == []

    def test_collect_still_finds_the_store(self):
        program = _loads_after_store_program()
        candidates, _ = _collect_search(
            ProgramCache(program), initial_state(1), 0, PROMISING_ARM, None
        )
        assert candidates == {(X, 1)}


# ---------------------------------------------------------------------------
# doomed-state pruning of the outer DFS
# ---------------------------------------------------------------------------

def _panic_after_promise_program():
    """Thread 0 stores the value it read from Z; thread 1 writes Z and
    panics on a non-zero X.  Thread 0 may promise X=1, read the stale
    Z=0 and store X=0 fresh: it then holds a promise no store it can
    still reach fulfils, while thread 1 can still read the promise and
    panic."""
    t0 = ThreadBuilder(0).load("r", Z).store(X, Reg("r")).load("a", Y)
    t1 = ThreadBuilder(1).store(Z, 1).load("b", X)
    t1.bz(Reg("b"), "skip").panic("saw a promise").label("skip")
    return build_program(
        [t0, t1], observed={0: ["r"], 1: ["b"]},
        initial_memory={X: 0, Y: 0, Z: 0},
    )


def _only_via_doomed(result):
    """The panic behavior reachable only through a doomed state: X=1
    was read from the promise, yet the last write to X stored 0."""
    return [
        b for b in result.behaviors
        if b.panic is not None and dict(b.memory)[X] == 0
        and (1, "b", 1) in b.registers
    ]


class TestDoomedPruning:
    def test_a_reachable_panic_keeps_the_doomed_state(self):
        program = _panic_after_promise_program()
        result = explore(program, PROMISING_ARM)
        assert _only_via_doomed(result)
        # States past thread 1's panic branch are still dropped.
        assert result.stats.doomed_pruned > 0
        assert check_program(program, ("reduction",)) == []

    def test_without_the_panic_gate_the_behavior_is_lost(self, monkeypatch):
        real = ProgramCache.doomed_tables

        def ungated(cache):
            holders, stuck, _panicky = real(cache)
            return holders, stuck, None

        monkeypatch.setattr(ProgramCache, "doomed_tables", ungated)
        result = explore(_panic_after_promise_program(), PROMISING_ARM)
        assert _only_via_doomed(result) == []

    def test_push_pull_prunes_nothing(self):
        # Load buffering with a control dependency: a thread that
        # promised its store and then read 0 branches past that store,
        # doomed with its promise outstanding.
        t0 = ThreadBuilder(0)
        skip = t0.fresh_label("skip")
        t0.load("a", Y).bz(Reg("a"), skip).store(X, 1).label(skip)
        t1 = ThreadBuilder(1).load("b", X).store(Y, 1)
        program = build_program(
            [t0, t1], observed={0: ["a"], 1: ["b"]},
            initial_memory={X: 0, Y: 0},
        )
        assert explore(program, PROMISING_ARM).stats.doomed_pruned > 0
        result = explore(program, PUSH_PULL_PROMISING)
        assert result.stats.doomed_pruned == 0

    def test_a_vstore_fulfils_a_promise(self):
        """Thread 0 promises Y=2 (its plain store), then branches past
        that store and fulfils the promise through a VStore translating
        to Y.  Treating the VStore as unable to fulfil would doom the
        state and lose r=1, s=2, a=2."""
        root = 0x100
        t0 = ThreadBuilder(0, is_kernel=False)
        t0.load("r", Z).load("s", X).bnz(Reg("r"), "virtual")
        t0.store(Y, 2).label("virtual").vstore(1, 2)
        t1 = ThreadBuilder(1).load("a", Y).store(X, Reg("a"))
        t2 = ThreadBuilder(2).store(Z, 1)
        program = build_program(
            [t0, t1, t2], observed={0: ["r", "s"], 1: ["a"]},
            initial_memory={X: 0, Y: 0, Z: 0, root + 1: Y},
            mmu=MMUConfig(root=root, levels=1),
        )
        cache = ProgramCache(program)
        assert not cache.promisable_from(0, 4)
        assert cache.fulfillable_from(0, 4)
        result = explore(program, PROMISING_ARM, observe_locs=[X, Y, Z])
        wanted = {(0, "r", 1), (0, "s", 2), (1, "a", 2)}
        assert any(wanted <= set(b.registers) for b in result.behaviors)
        assert check_program(program, ("reduction",)) == []


# ---------------------------------------------------------------------------
# pinned state counts
# ---------------------------------------------------------------------------

class TestCounts:
    def test_promise_heavy_shrinks_with_identical_behaviors(self):
        """Dropping doomed successors takes ``promise_heavy`` at 3
        promises from 163,581 states to 7,107, skipping a thread's
        promise of the store it stands at takes that to 2,211, and
        dropping successors that hold a dead promise to 1,832; the SAT
        backend — an independent decision procedure — still agrees on
        every behavior."""
        program = promise_heavy_program()
        cfg = ModelConfig(relaxed=True, max_promises_per_thread=3)
        result = explore(program, cfg, por=True)
        assert result.complete
        assert result.states_explored == 1_832
        assert result.stats.successors_generated == 3_249
        assert result.stats.doomed_pruned == 305
        assert result.stats.dead_promises_pruned == 217
        assert result.stats.promise_gate_skips == 771
        solved = bmc_behaviors(program, cfg, cache=False)
        assert {(b.registers, b.memory) for b in result.behaviors} == {
            (b.registers, b.memory) for b in solved
        }

    @pytest.mark.parametrize("correct,states,pruned,ample", [
        (False, 8_720, 940, 4_152),
        (True, 992, 175, 452),
    ], ids=["buggy", "fixed"])
    def test_gen_vmid_counts(self, correct, states, pruned, ample):
        """Await-loop pruning and local-step POR take ``gen_vmid``'s
        Arm exploration from 51,421 states (buggy) and 4,583 (fixed) to
        25,057 and 2,003; identifying states up to a swap of its two
        identical CPUs halves those to 12,529 and 1,002, and dropping
        successors that hold a dead promise gives these exact counts."""
        test = catalog.example2(correct)
        _sc, rm = litmus_configs(test)
        result = explore(test.program, rm, por=True)
        assert result.complete
        assert result.states_explored == states
        assert result.stats.await_pruned == pruned
        assert result.stats.por_ample_hits == ample
        assert result.stats.symmetric_threads == 2
