"""Pinned regression programs for await-loop pruning and local-step POR.

The explorer drops the taken back-edge of a *pure await loop*
(:meth:`repro.memory.semantics.ProgramCache.await_backedges`) and
schedules a thread at a local step alone (:class:`repro.memory.por.
PORPlan`).  Each program here is checked against the
unreduced reference DFS — the ``reduction`` oracle, and the ``por``
oracle where POR's gate is the point — and, where it matters, the test
also pins whether the gate accepted the loop.
"""

import pytest

from repro.conformance.genome import Genome, OpSpec, build
from repro.conformance.oracles import _reference_explore, check_program
from repro.ir import ThreadBuilder, build_program
from repro.ir.expr import Reg
from repro.ir.instructions import MemSpace
from repro.memory.exploration import explore
from repro.memory.semantics import PROMISING_ARM, SC, ModelConfig, ProgramCache
from repro.memory.tso import TSO
from repro.sync.primitives import ticket_lock
from repro.sync.verify import COUNTER_LOC, counter_harness
from repro.vrm.verifier import WDRFSpec

X, Y, A, B = 0x40, 0x48, 0x50, 0x58


def _agrees(program, oracles=("reduction", "por"), **kwargs):
    found = check_program(program, oracles, **kwargs)
    assert found == [], "\n".join(d.describe() for d in found)


def _pruned_loops(program, pushpull=False):
    """Per thread, the ``{branch pc: head pc}`` loops the gate accepted."""
    tables = ProgramCache(program).await_backedges(pushpull)
    if tables is None:
        return [{} for _ in program.threads]
    return [dict(t) for t in tables]


def store_in_body_program():
    """``L: r := [X]; [X] := 1; bnz r - 1, L``: the first iteration
    reads 0 and fails, and only its own store lets the second exit."""
    t0 = ThreadBuilder(0)
    t0.label("L").load("r", X).store(X, 1).bnz(Reg("r") - 1, "L")
    return build_program(
        [t0], observed={0: ["r"]}, initial_memory={X: 0}, name="spin+store",
    )


def counter_loop_program():
    """T0 flips ``i`` on every iteration of its spin on ``[X]``, so the
    final ``i`` is the parity of the iteration count; T1 stores
    ``[X] := 1``."""
    t0 = ThreadBuilder(0)
    t0.mov("i", 0).label("L").mov("i", 1 - Reg("i"))
    t0.load("r", X).bz(Reg("r"), "L")
    t1 = ThreadBuilder(1)
    t1.store(X, 1)
    return build_program(
        [t0, t1], observed={0: ["i"]}, initial_memory={X: 0},
        name="counter",
    )


def kernel_spin_program(space=MemSpace.KERNEL):
    """T0 spins on ``[X]`` in *space*; T1 pulls, stores and pushes it."""
    t0 = ThreadBuilder(0)
    t0.spin_until_eq("r", X, 1, space=space)
    t1 = ThreadBuilder(1)
    t1.pull(X).store(X, 1).push(X)
    return build_program(
        [t0, t1], observed={0: ["r"]}, initial_memory={X: 0},
        name="kernel-spin",
    )


def pointer_chasing_program():
    """``mov r := A; L: r := [r]; bnz r, L``: each iteration reads the
    location the previous one loaded, so ``r`` is loop-carried and the
    final ``r = 0`` needs a second iteration."""
    t0 = ThreadBuilder(0)
    t0.mov("r", A).label("L").load("r", Reg("r")).bnz(Reg("r"), "L")
    return build_program(
        [t0], observed={0: ["r"]}, initial_memory={A: B, B: 0},
        name="pointer-chase",
    )


class TestGate:
    def test_spin_until_eq_is_pruned(self):
        b = ThreadBuilder(0)
        b.spin_until_eq("r", X, 1)
        program = build_program([b], initial_memory={X: 0})
        assert _pruned_loops(program) == [{2: 0}]

    def test_store_in_body_is_not_pruned(self):
        assert _pruned_loops(store_in_body_program()) == [{}]

    def test_pointer_chasing_is_not_pruned(self):
        assert _pruned_loops(pointer_chasing_program()) == [{}]

    def test_counter_loop_is_not_pruned(self):
        assert _pruned_loops(counter_loop_program()) == [{}, {}]

    def test_second_entry_into_the_body_is_not_pruned(self):
        """Entered at ``M`` with ``r = 5``, the first trip round the loop
        must take the back-edge to reach the load at all."""
        t0 = ThreadBuilder(0)
        t0.mov("r", 5).jump("M").label("L").load("r", X).label("M")
        t0.bnz(Reg("r") - 1, "L")
        t1 = ThreadBuilder(1)
        t1.store(X, 1)
        program = build_program(
            [t0, t1], observed={0: ["r"]}, initial_memory={X: 0},
        )
        assert _pruned_loops(program) == [{}, {}]
        _agrees(program)

    def test_kernel_load_is_not_pruned_under_pushpull(self):
        program = kernel_spin_program()
        assert _pruned_loops(program, pushpull=False)[0] == {2: 0}
        assert _pruned_loops(program, pushpull=True)[0] == {}
        sync = kernel_spin_program(space=MemSpace.SYNC)
        assert _pruned_loops(sync, pushpull=True)[0] == {2: 0}


class TestAgainstReference:
    @pytest.mark.parametrize("correct", [True, False])
    def test_ticket_lock(self, correct):
        program = counter_harness(ticket_lock(correct))
        spec = WDRFSpec(program=program, shared_locs=(COUNTER_LOC,))
        result = explore(program, PROMISING_ARM)
        assert result.stats.await_pruned > 0
        _agrees(program, spec=spec)

    def test_store_in_body(self):
        _agrees(store_in_body_program())

    def test_pointer_chasing(self):
        _agrees(pointer_chasing_program())

    def test_counter_loop(self):
        _agrees(counter_loop_program())

    def test_spin_exits_on_a_promised_value(self):
        """T0 leaves its spin only on ``[X] = 1``, which T1 stores after
        reading ``[Y]``; ``r1 = 1`` needs T1 to promise that store
        first, so T0 must still be waiting at the loop head when the
        promise appears."""
        t0 = ThreadBuilder(0)
        t0.spin_until_eq("r0", X, 1).store(Y, 1)
        t1 = ThreadBuilder(1)
        t1.load("r1", Y).store(X, 1)
        program = build_program(
            [t0, t1], observed={0: ["r0"], 1: ["r1"]},
            initial_memory={X: 0, Y: 0}, name="LB+spin",
        )
        result = explore(program, PROMISING_ARM)
        assert result.stats.await_pruned > 0
        assert any(
            ("r1", 1) in {(reg, v) for _tid, reg, v in b.registers}
            for b in result.behaviors
        )
        _agrees(program)

    def test_two_observed_registers_beside_a_panic(self):
        """A panic freezes T0 mid-iteration with ``r1`` from this
        iteration and ``r2`` from the last one; that pair exists only if
        the failed iteration is kept, so the gate refuses the loop."""
        t0 = ThreadBuilder(0)
        t0.label("L").load("r1", X).load("r2", X)
        t0.bz(Reg("r1") - Reg("r2"), "L")
        t1 = ThreadBuilder(1)
        t1.store(X, 1)
        t2 = ThreadBuilder(2)
        t2.panic("boom")
        program = build_program(
            [t0, t1, t2], observed={0: ["r1", "r2"]},
            initial_memory={X: 0},
        )
        assert _pruned_loops(program)[0] == {}
        _agrees(program)

    def test_kernel_spin_under_pushpull(self):
        """Under push/pull, a kernel-memory load in the body can panic a
        later iteration with the previous iteration's register."""
        program = kernel_spin_program()
        _agrees(program, oracles=("reduction",),
                spec=WDRFSpec(program=program))

    @pytest.mark.parametrize("model", [SC, TSO], ids=["sc", "tso"])
    def test_ticket_lock_other_models(self, model):
        """The ``reduction`` oracle explores the relaxed model only, so
        the SC and TSO explorers are compared with the reference here."""
        program = counter_harness(ticket_lock(True))
        observe = sorted(program.initial_memory)
        reduced = explore(program, model, observe_locs=observe)
        assert reduced.complete and reduced.stats.await_pruned > 0
        reference = _reference_explore(program, model, observe)
        assert reference.complete
        assert reduced.behaviors == reference.behaviors


#: The two ``plain`` genomes on which naive promise-first scheduling
#: lost behaviors: each needs a promise placed mid-timeline.
PROMISE_FIRST_COUNTEREXAMPLES = [
    Genome("plain", (
        (OpSpec("cas", 0, 1), OpSpec("faa", 1), OpSpec("store", 0, 2)),
        (OpSpec("load_acq", 0), OpSpec("load_acq", 1),
         OpSpec("store_rel", 0, 1)),
    ), name="cas-faa-store"),
    Genome("plain", (
        (OpSpec("load", 1), OpSpec("load", 1), OpSpec("store", 0, 3),
         OpSpec("load", 0)),
        (OpSpec("store_rel", 0, 2), OpSpec("faa", 0),
         OpSpec("store_rel", 1, 2)),
    ), name="load-load-store"),
]


@pytest.mark.parametrize(
    "genome", PROMISE_FIRST_COUNTEREXAMPLES,
    ids=[g.name for g in PROMISE_FIRST_COUNTEREXAMPLES],
)
@pytest.mark.parametrize("promises", [1, 2])
def test_promise_first_counterexamples(genome, promises):
    rm = ModelConfig(relaxed=True, max_promises_per_thread=promises)
    _agrees(build(genome), rm=rm)
