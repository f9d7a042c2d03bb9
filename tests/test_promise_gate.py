"""Own-store promise gate: a thread never promises the store it stands at.

The relaxed explorer skips, at a thread standing at a plain store, the
one promise candidate equal to that store's own ``(loc, value)``
(:func:`repro.memory.exploration._promise_gate`): executing the store
reaches the same states.  The unreduced reference DFS
(:func:`repro.conformance.oracles._reference_explore`) keeps the full
promise set, so it is the check here: the catalog tests the gate cuts
most, ``promise_heavy`` at 1 and 2 promises, the pinned promise-first
counterexamples and a fixed-seed sweep of ``plain``, ``fenced`` and
``sync`` genomes must give exactly the reference's behaviors.  The
off-condition tests pin where the gate turns itself off: push/pull, an
MMU, VM features and a reachable ``Panic``.
"""

import dataclasses

import pytest

from repro.conformance.genome import build, random_genome
from repro.conformance.oracles import _reference_explore
from repro.ir import ThreadBuilder, build_program
from repro.ir.expr import Reg
from repro.ir.program import MMUConfig
from repro.litmus.catalog import full_corpus, promise_heavy_program
from repro.litmus.generate import derive_rng
from repro.litmus.runner import litmus_configs
from repro.memory.exploration import _promise_gate, explore
from repro.memory.semantics import (
    PROMISING_ARM,
    PUSH_PULL_PROMISING,
    VM_FEATURES,
    ModelConfig,
    ProgramCache,
)
from tests.test_await_reduction import PROMISE_FIRST_COUNTEREXAMPLES

X, Y = 0x10, 0x20


def _agrees_with_reference(program, cfg):
    """The explorer's result, after checking that both searches complete
    with the same behaviors."""
    observe = sorted(program.initial_memory)
    gated = explore(program, cfg, observe_locs=observe)
    assert gated.complete
    reference = _reference_explore(program, cfg, observe)
    assert reference.complete
    assert gated.behaviors == reference.behaviors
    return gated


def _store_buffering(*extra, mmu=None, initial=()):
    """SB: each thread stands at a store before it loads."""
    t0 = ThreadBuilder(0).store(X, 1).load("a", Y)
    t1 = ThreadBuilder(1).store(Y, 1).load("b", X)
    return build_program(
        [t0, t1, *extra], observed={0: ["a"], 1: ["b"]},
        initial_memory={X: 0, Y: 0, **dict(initial)}, mmu=mmu,
    )


def _catalog_test(name):
    return next(t for t in full_corpus() if t.name == name)


class TestAgainstReference:
    @pytest.mark.parametrize("promises,states", [(1, 1_052), (2, 1_832)])
    def test_promise_heavy(self, promises, states):
        cfg = ModelConfig(relaxed=True, max_promises_per_thread=promises)
        result = _agrees_with_reference(promise_heavy_program(), cfg)
        assert result.states_explored == states
        assert result.stats.promise_gate_skips > 0
        assert result.stats.dead_promises_pruned > 0

    @pytest.mark.parametrize("name,states", [
        ("IRIW", 147), ("ISA2+plain", 568), ("2+2W", 109), ("S+data", 75),
    ])
    def test_catalog(self, name, states):
        test = _catalog_test(name)
        _sc, rm = litmus_configs(test)
        result = _agrees_with_reference(test.program, rm)
        assert result.states_explored == states
        assert result.stats.promise_gate_skips > 0

    @pytest.mark.parametrize(
        "genome", PROMISE_FIRST_COUNTEREXAMPLES,
        ids=[g.name for g in PROMISE_FIRST_COUNTEREXAMPLES],
    )
    @pytest.mark.parametrize("promises", [1, 2])
    def test_promise_first_counterexamples(self, genome, promises):
        """Both pinned genomes need a promise in the middle of coherence
        order; the gate must not take it away."""
        cfg = ModelConfig(relaxed=True, max_promises_per_thread=promises)
        _agrees_with_reference(build(genome), cfg)

    def test_genome_sweep(self):
        """99 fixed-seed genomes, a third per profile, at one promise,
        and the first 24 at two: no mismatch, no budget cut."""
        skips = 0
        for seed in range(99):
            profile = ("plain", "fenced", "sync")[seed % 3]
            genome = random_genome(
                profile, derive_rng(seed, "promise-gate", profile),
            )
            program = build(genome)
            for promises in (1, 2) if seed < 24 else (1,):
                cfg = ModelConfig(
                    relaxed=True, max_promises_per_thread=promises,
                )
                result = _agrees_with_reference(program, cfg)
                skips += result.stats.promise_gate_skips
        assert skips > 0


class TestGate:
    def test_store_buffering_certifies_nothing(self):
        """SB's threads each stand at their only store: the gate drops
        that promise, so no promise is certified at all."""
        result = _agrees_with_reference(_store_buffering(), PROMISING_ARM)
        assert result.stats.promise_gate_skips > 0
        assert result.stats.certify_calls == 0

    def test_a_release_store_is_not_gated(self):
        t0 = ThreadBuilder(0).store(X, 1, release=True).load("a", Y)
        t1 = ThreadBuilder(1).store(Y, 1, release=True).load("b", X)
        program = build_program(
            [t0, t1], observed={0: ["a"], 1: ["b"]},
            initial_memory={X: 0, Y: 0},
        )
        stores, _panicky, _mutant = _promise_gate(
            program, ProgramCache(program), PROMISING_ARM,
        )
        assert stores == ((None, None, None), (None, None, None))

    def test_off_under_pushpull(self):
        program = _store_buffering()
        assert _promise_gate(
            program, ProgramCache(program), PUSH_PULL_PROMISING,
        ) is None
        result = explore(program, PUSH_PULL_PROMISING)
        assert result.stats.promise_gate_skips == 0
        assert result.stats.certify_calls > 0

    def test_off_for_an_mmu_program(self):
        program = _store_buffering(
            mmu=MMUConfig(root=0x100, levels=1), initial={0x101: X},
        )
        assert _promise_gate(
            program, ProgramCache(program), PROMISING_ARM,
        ) is None
        result = _agrees_with_reference(program, PROMISING_ARM)
        assert result.stats.promise_gate_skips == 0

    def test_off_under_vm_features(self):
        program = _store_buffering()
        cfg = dataclasses.replace(
            PROMISING_ARM, vm_features=frozenset(VM_FEATURES),
        )
        assert _promise_gate(program, ProgramCache(program), cfg) is None
        result = explore(program, cfg)
        assert result.stats.promise_gate_skips == 0
        assert result.stats.certify_calls > 0

    def test_off_while_a_panic_is_reachable(self):
        """A third thread that may always still panic keeps the gate
        off in every state: a run that panics may end with the skipped
        promise still outstanding, a terminal state only the promise
        reaches."""
        t2 = ThreadBuilder(2).panic("boom")
        result = _agrees_with_reference(_store_buffering(t2), PROMISING_ARM)
        assert result.stats.promise_gate_skips == 0
        assert result.stats.certify_calls > 0

    def test_on_once_no_panic_is_reachable(self):
        """A panic behind a branch stops blocking the gate once its
        thread has branched past it and halted."""
        t2 = ThreadBuilder(2)
        done = t2.fresh_label("done")
        t2.load("c", Y).bz(Reg("c"), done).panic("boom").label(done)
        result = _agrees_with_reference(_store_buffering(t2), PROMISING_ARM)
        assert result.stats.promise_gate_skips > 0
        assert any(b.panic == "boom" for b in result.behaviors)
