"""Live-field projection of Arm states, store-reachability pruning and
doomed-state pruning.

The projection (:mod:`repro.memory.liveness`) changes which states the
outer DFS treats as duplicates, never the states it expands, so the
contract under test is:

* the per-(thread, pc) table follows the documented rules,
* configurations and threads it is not sound for get the identity,
* states differing only in dead fields share one key, states differing
  in a live field do not,
* an unsound table is caught both by the pinned litmus digests and by
  the ``reduction`` conformance oracle, whose reference search keys
  states exactly,
* the nested certification searches stop at states from which no
  fulfilling store is reachable,
* the outer DFS drops doomed successors (a promise no reachable store
  can fulfil, no reachable panic) and nothing else: not under push/pull,
  not while a panic is reachable, not while a ``VStore`` can fulfil.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.conformance import behavior_digest
from repro.conformance.oracles import check_program
from repro.ir import ThreadBuilder, build_program
from repro.ir.expr import Reg
from repro.ir.program import MMUConfig
from repro.litmus import catalog
from repro.litmus.catalog import full_corpus, promise_heavy_program
from repro.litmus.runner import litmus_configs
from repro.memory import liveness, semantics
from repro.memory.exploration import explore
from repro.memory.liveness import (
    LiveFields,
    determined_threads,
    live_table,
    projection_applies,
    state_projection,
    visited_key,
)
from repro.memory.semantics import (
    PROMISING_ARM,
    PUSH_PULL_PROMISING,
    SC,
    TSO,
    ModelConfig,
    ProgramCache,
    _certify_search,
    _collect_search,
)
from repro.memory.state import StateInterner, initial_state
from repro.smt import bmc_behaviors

X, Y, Z = 0x10, 0x20, 0x30

_DIGESTS = os.path.join(
    os.path.dirname(__file__), "corpus", "litmus_digests.json"
)


def _table(thread: ThreadBuilder, observed=()):
    program = build_program(
        [thread], observed={thread.tid: list(observed)},
        initial_memory={X: 0, Y: 0, Z: 0},
    )
    return live_table(ProgramCache(program), 0)


def _views(live: LiveFields):
    return {
        name for name in ("vrn", "vwn", "vro", "vwo", "vctrl")
        if getattr(live, name)
    }


# ---------------------------------------------------------------------------
# the table rules
# ---------------------------------------------------------------------------

class TestTableRules:
    def test_load_reads_vrn_and_its_coherence_entry(self):
        table = _table(ThreadBuilder(0).load("a", X))
        assert _views(table[0]) == {"vrn"}
        assert table[0].coh == {X}

    def test_plain_store_reads_vwn_and_vctrl(self):
        table = _table(ThreadBuilder(0).store(X, 1))
        assert _views(table[0]) == {"vwn", "vctrl"}
        assert table[0].coh == {X}

    def test_release_store_also_reads_vro_and_vwo(self):
        table = _table(ThreadBuilder(0).store(X, 1, release=True))
        assert _views(table[0]) == {"vwn", "vctrl", "vro", "vwo"}

    @pytest.mark.parametrize("kind, views", [
        ("sy", {"vro", "vwo"}),
        ("ld", {"vro"}),
        ("st", {"vwo"}),
        ("isb", {"vctrl"}),
    ])
    def test_barriers_read_their_inputs(self, kind, views):
        table = _table(ThreadBuilder(0).barrier(kind))
        assert _views(table[0]) == views
        assert table[0].coh == frozenset()

    def test_fetch_and_inc_keeps_its_location_only(self):
        table = _table(ThreadBuilder(0).faa("a", X))
        assert _views(table[0]) == set()
        assert table[0].coh == {X}

    def test_liveness_is_reachability_from_pc(self):
        # pc 0 reaches the barrier, pc 2 only the final load.
        table = _table(ThreadBuilder(0).load("a", X).barrier("sy").load("b", Y))
        assert _views(table[0]) == {"vrn", "vro", "vwo"}
        assert table[0].coh == {X, Y}
        assert _views(table[2]) == {"vrn"}
        assert table[2].coh == {Y}

    def test_register_address_keeps_the_whole_coherence_map(self):
        thread = ThreadBuilder(0).load("p", X).load("v", Reg("p")).load("w", Y)
        table = _table(thread)
        assert table[0].coh is None and table[1].coh is None
        assert table[2].coh == {Y}

    def test_registers_follow_backward_liveness_with_kills(self):
        thread = (
            ThreadBuilder(0)
            .load("a", X)          # 0: kills a
            .store(Y, Reg("a"))    # 1: reads a
            .mov("a", 5)           # 2: kills a
            .store(Z, Reg("a"))    # 3: reads a
            .load("a", X)          # 4: kills a, never read again
        )
        table = _table(thread)
        assert "a" not in table[0].regs
        assert "a" in table[1].regs and "a" in table[1].rv
        assert "a" not in table[2].regs
        assert "a" in table[3].regs
        assert "a" not in table[4].regs and "a" not in table[4].rv

    def test_branch_condition_registers_are_live_across_the_loop(self):
        thread = ThreadBuilder(0)
        thread.label("top").load("r", X).bz(Reg("r"), "top")
        table = _table(thread)
        assert "r" in table[2].regs and "r" in table[2].rv  # the branch
        assert "r" not in table[1].regs                      # load kills
        assert table[0].coh == {X}

    def test_observed_values_are_always_kept_but_not_their_views(self):
        table = _table(ThreadBuilder(0).load("a", X).load("b", Y), ["a"])
        for live in table:
            assert "a" in live.regs
        assert "a" not in table[1].rv

    def test_halted_entry_keeps_only_observed_values(self):
        table = _table(ThreadBuilder(0).load("a", X).barrier("sy"), ["a"])
        halted = table[-1]
        assert len(table) == 3
        assert _views(halted) == set()
        assert halted.coh == frozenset()
        assert halted.regs == {"a"} and halted.rv == frozenset()

    def test_panic_has_no_successors(self):
        thread = ThreadBuilder(0).load("a", X).panic("boom").barrier("sy")
        table = _table(thread)
        assert _views(table[1]) == set()
        assert "vro" not in _views(table[0])


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------

class TestEligibility:
    @pytest.mark.parametrize("cfg", [
        SC,
        TSO,
        PUSH_PULL_PROMISING,
        dataclasses.replace(PROMISING_ARM, vm_features=frozenset({"bbm"})),
    ])
    def test_ineligible_configs_get_the_identity(self, cfg):
        assert not projection_applies(cfg)
        cache = ProgramCache(promise_heavy_program())
        project = state_projection(cache, cfg)
        state = initial_state(2)
        assert project(state) is state
        interner = StateInterner()
        assert visited_key(project, interner) == interner.key

    def test_arm_is_eligible(self):
        assert projection_applies(PROMISING_ARM)

    def test_ineligible_threads_keep_their_exact_context(self):
        t0 = ThreadBuilder(0).load("a", X).load("b", Y)
        t1 = ThreadBuilder(1).cas("c", X, 0, 1).load("d", Y)
        program = build_program(
            [t0, t1], initial_memory={X: 0, Y: 0},
        )
        cache = ProgramCache(program)
        project = state_projection(cache, PROMISING_ARM)
        state = initial_state(2)
        noisy = state.with_thread(0, state.threads[0]._replace(vro=4))
        noisy = noisy.with_thread(1, noisy.threads[1]._replace(vro=4))
        projected = project(noisy)
        assert projected.threads[0].vro == 0
        assert projected.threads[1] is noisy.threads[1]

    def test_no_projectable_thread_means_identity(self):
        t0 = ThreadBuilder(0).cas("c", X, 0, 1)
        program = build_program([t0], initial_memory={X: 0})
        project = state_projection(ProgramCache(program), PROMISING_ARM)
        state = initial_state(1)
        assert project(state) is state


# ---------------------------------------------------------------------------
# determined threads: projecting them could merge nothing
# ---------------------------------------------------------------------------

def _determined(*builders, observed=None):
    program = build_program(
        list(builders), observed=observed or {},
        initial_memory={X: 0, Y: 0},
    )
    return determined_threads(ProgramCache(program))


class TestDeterminedThreads:
    def test_iriw_is_fully_determined(self):
        test = {t.name: t for t in full_corpus()}["IRIW"]
        assert determined_threads(ProgramCache(test.program)) == {0, 1, 2, 3}
        assert state_projection(
            ProgramCache(test.program), PROMISING_ARM
        ) is liveness._same

    def test_promise_heavy_has_none(self):
        # Every store is followed by more instructions: a thread can
        # store a value again after promising it.
        assert determined_threads(ProgramCache(promise_heavy_program())) == set()

    def test_reader_of_distinct_last_stores_is_determined(self):
        writer = ThreadBuilder(0).store(X, 1)
        reader = ThreadBuilder(1).load("a", X).load("b", Y)
        assert _determined(writer, reader, observed={1: ["a", "b"]}) == {0, 1}

    def test_unobserved_or_reused_register_is_not(self):
        writer = ThreadBuilder(0).store(X, 1)
        reader = ThreadBuilder(1).load("a", X).load("b", Y)
        assert _determined(writer, reader, observed={1: ["a"]}) == {0}
        reuse = ThreadBuilder(1).load("a", X).load("a", Y)
        writer = ThreadBuilder(0).store(X, 1)
        assert _determined(writer, reuse, observed={1: ["a"]}) == {0}

    def test_branch_is_not(self):
        writer = ThreadBuilder(0).store(X, 1)
        reader = ThreadBuilder(1)
        reader.load("a", X).bz(Reg("a"), "end").label("end")
        assert 1 not in _determined(writer, reader, observed={1: ["a"]})

    def test_repeated_values_make_readers_not(self):
        # Two messages with one value: the value no longer names it.
        reader = ThreadBuilder(2).load("a", X)
        same = _determined(
            ThreadBuilder(0).store(X, 1), ThreadBuilder(1).store(X, 1),
            reader, observed={2: ["a"]},
        )
        assert 2 not in same
        reader = ThreadBuilder(2).load("a", X)
        init = _determined(
            ThreadBuilder(0).store(X, 0), reader, observed={2: ["a"]},
        )
        assert 2 not in init

    def test_store_before_more_code_makes_readers_not(self):
        writer = ThreadBuilder(0).store(X, 1).store(Y, 1)
        reader = ThreadBuilder(1).load("a", X).load("b", Y)
        assert _determined(writer, reader, observed={1: ["a", "b"]}) == {0}

    def test_register_addressed_store_disables_the_analysis(self):
        writer = ThreadBuilder(0).load("p", X).store(Reg("p"), 1)
        reader = ThreadBuilder(1).load("a", Y)
        assert _determined(
            writer, reader, observed={0: ["p"], 1: ["a"]}
        ) == set()

    def test_skipping_them_changes_no_count(self, monkeypatch):
        """Every catalog program with a determined thread explores the
        same states to the same behaviors when every thread is projected."""
        checked = 0
        for test in full_corpus():
            if not determined_threads(ProgramCache(test.program)):
                continue
            _, cfg = litmus_configs(test)
            gated = explore(test.program, cfg)
            with monkeypatch.context() as m:
                m.setattr(liveness, "determined_threads", lambda c: frozenset())
                full = explore(test.program, cfg)
            assert gated.states_explored == full.states_explored, test.name
            assert gated.behaviors == full.behaviors, test.name
            checked += 1
        assert checked >= 20


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def _keys(program, cfg, states):
    project = state_projection(ProgramCache(program), cfg)
    key = visited_key(project, StateInterner())
    return {key(s) for s in states}


class TestMerging:
    def test_states_differing_only_in_dead_vro_share_a_key(self):
        program = promise_heavy_program()
        cfg = ModelConfig(relaxed=True, max_promises_per_thread=3)
        start = initial_state(2)
        # Thread 1 past its store: only loads remain, so vro is dead.
        ctx = start.threads[1]._replace(pc=1)
        a = start.with_thread(1, ctx._replace(vro=0))
        b = start.with_thread(1, ctx._replace(vro=3))
        assert a != b
        assert len(_keys(program, cfg, [a, b])) == 1
        # The projection only keys states; the states stay exact.
        assert state_projection(ProgramCache(program), cfg)(b) is not b
        assert b.threads[1].vro == 3

    def test_live_vro_keeps_states_apart(self):
        # MP with a DMB before the last load: vro feeds the barrier.
        t0 = ThreadBuilder(0).store(X, 1).store(Y, 1)
        t1 = ThreadBuilder(1).load("a", Y).barrier("sy").load("b", X)
        program = build_program(
            [t0, t1], observed={1: ["a", "b"]},
            initial_memory={X: 0, Y: 0},
        )
        start = initial_state(2)
        ctx = start.threads[1]._replace(pc=1)
        a = start.with_thread(1, ctx._replace(vro=0))
        b = start.with_thread(1, ctx._replace(vro=3))
        assert len(_keys(program, PROMISING_ARM, [a, b])) == 2

    def test_dead_register_values_and_views_merge(self):
        t0 = ThreadBuilder(0).load("a", X).load("b", Y)
        program = build_program([t0], initial_memory={X: 0, Y: 0})
        start = initial_state(1)
        ctx = start.threads[0]._replace(pc=1)
        a = start.with_thread(0, ctx._replace(regs=(("a", 0),), rv=(("a", 0),)))
        b = start.with_thread(0, ctx._replace(regs=(("a", 1),), rv=(("a", 2),)))
        assert len(_keys(program, PROMISING_ARM, [a, b])) == 1

    def test_key_is_the_interner_key_of_the_projected_state(self):
        program = promise_heavy_program()
        project = state_projection(ProgramCache(program), PROMISING_ARM)
        interner = StateInterner()
        key = visited_key(project, interner)
        start = initial_state(2)
        # Thread 1 stored to 0x40 at pc 0 and never accesses it again.
        ctx = start.threads[1]._replace(pc=1, vro=3, coh=((X, 1), (0x40, 2)))
        state = start.with_thread(1, ctx)
        projected = project(state)
        assert projected.threads[1].coh == ((X, 1),)
        assert key(state) == interner.key(projected)
        assert key(start) == interner.key(start)

    def test_interning_off_keys_on_the_projected_state(self):
        program = promise_heavy_program()
        project = state_projection(ProgramCache(program), PROMISING_ARM)
        key = visited_key(project, None)
        start = initial_state(2)
        ctx = start.threads[1]._replace(pc=1)
        a = start.with_thread(1, ctx._replace(vro=0))
        b = start.with_thread(1, ctx._replace(vro=3))
        assert key(a) == key(b) == a

    def test_promise_heavy_shrinks_with_identical_behaviors(self):
        """140,945 exact states become 67,716 projected ones, and 5,530
        once doomed successors are dropped; the SAT backend — an
        independent decision procedure — still agrees on every
        behavior."""
        program = promise_heavy_program()
        cfg = ModelConfig(relaxed=True, max_promises_per_thread=3)
        result = explore(program, cfg, por=True)
        assert result.complete
        assert result.states_explored == 5_530
        assert result.stats.successors_generated == 10_133
        assert result.stats.doomed_pruned == 3_765
        solved = bmc_behaviors(program, cfg, cache=False)
        assert {(b.registers, b.memory) for b in result.behaviors} == {
            (b.registers, b.memory) for b in solved
        }

    @pytest.mark.parametrize("correct,states,pruned,ample", [
        (False, 25_057, 1_880, 11_372),
        (True, 2_003, 350, 904),
    ], ids=["buggy", "fixed"])
    def test_gen_vmid_counts(self, correct, states, pruned, ample):
        """Await-loop pruning and local-step POR take ``gen_vmid``'s
        Arm exploration from 51,421 states (buggy) and 4,583 (fixed)
        to these exact counts."""
        test = catalog.example2(correct)
        _sc, rm = litmus_configs(test)
        result = explore(test.program, rm, por=True)
        assert result.complete
        assert result.states_explored == states
        assert result.stats.await_pruned == pruned
        assert result.stats.por_ample_hits == ample


# ---------------------------------------------------------------------------
# the differential check: an unsound table is caught by the pinned digests
# ---------------------------------------------------------------------------

#: Catalog programs the unsound table below is tried on, and the ones
#: whose behavior set it changes.
_UNSOUND_TRIED = ["MP", "SB", "LB+one-data", "WRC", "S+data"]
_UNSOUND_CAUGHT = ["LB+one-data", "WRC", "S+data"]


def _forget_live_registers(monkeypatch):
    """Install a table that keeps only the observed registers' values
    and drops every view, and project every thread, determined ones
    included."""
    real_table = liveness.live_table

    def unsound(cache, tidx):
        return [
            live._replace(regs=live.regs - live.rv, rv=frozenset())
            for live in real_table(cache, tidx)
        ]

    monkeypatch.setattr(liveness, "live_table", unsound)
    monkeypatch.setattr(liveness, "determined_threads", lambda c: frozenset())


def test_unsound_table_is_caught_by_litmus_digests(monkeypatch):
    """A table that forgets live registers merges states whose futures
    differ; the committed digests (computed by the exact engine) must
    notice.  ``explore`` is called directly: the exploration caches
    would answer with results of the unpatched engine.

    A table that forgets only views or coherence entries is unsound too,
    but no catalog program exposes it: in every merge it causes there,
    the member the DFS keeps still reaches every behavior of the rest."""
    with open(_DIGESTS, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    tests = {t.name: t for t in full_corpus()}

    def drifted():
        out = []
        for name in _UNSOUND_TRIED:
            test = tests[name]
            _, rm_cfg = litmus_configs(test)
            observe = sorted(test.program.initial_memory)
            result = explore(test.program, rm_cfg, observe_locs=observe)
            if behavior_digest(result) != expected[name]["rm"]:
                out.append(name)
        return out

    assert drifted() == []
    _forget_live_registers(monkeypatch)
    assert drifted() == _UNSOUND_CAUGHT


def test_unsound_table_is_caught_by_the_reduction_oracle(monkeypatch):
    """The ``reduction`` oracle sees the same broken table with no
    pinned corpus: its reference search keys states exactly."""
    monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
    monkeypatch.setenv("REPRO_EXPLORE_MEMO", "0")
    tests = {t.name: t for t in full_corpus()}

    def caught():
        return [
            name for name in _UNSOUND_TRIED
            if check_program(
                tests[name].program, ("reduction",),
                rm=litmus_configs(tests[name])[1],
            )
        ]

    assert caught() == []
    _forget_live_registers(monkeypatch)
    assert caught() == _UNSOUND_CAUGHT


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
        # Store buffering: a thread that promised its store and then
        # stored the value fresh is doomed at its final load.
        t0 = ThreadBuilder(0).store(X, 1).load("a", Y)
        t1 = ThreadBuilder(1).store(Y, 1).load("b", X)
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
