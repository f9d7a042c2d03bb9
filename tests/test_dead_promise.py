"""Dead-promise pruning: a promise the holder's own views have passed.

The relaxed explorer drops a successor in which a thread holds a
promise ``p`` to location ``L`` with ``p <= max(coh[L], vwn, vctrl)``
in its own context, unless a ``Panic`` is still reachable
(:func:`repro.memory.exploration._drop_doomed`).  Fulfilling ``p``
needs ``p`` above the store floor, and no step lowers those views, so
such a promise stays outstanding in every descendant.

The unreduced reference DFS
(:func:`repro.conformance.oracles._reference_explore`) prunes nothing,
so it is the check here: the catalog tests the pruning cuts and a
fixed-seed genome sweep must give exactly the reference's behaviors.
``tests/test_promise_gate.py`` compares ``promise_heavy`` at 1 and 2
promises (where the pruning fires) and the pinned promise-first
counterexamples (where it does not) against the same reference.  The gate tests pin where the check turns
itself off (push/pull, a reachable ``Panic``), and the monotonicity
test guards the premise the exactness argument rests on.
"""

import dataclasses

import pytest

from repro.conformance.genome import build, random_genome
from repro.ir import ThreadBuilder, build_program
from repro.ir.expr import Reg
from repro.litmus.catalog import promise_heavy_program
from repro.litmus.generate import derive_rng
from repro.litmus.runner import litmus_configs, tso_config
from repro.memory.semantics import (
    PROMISING_ARM,
    PUSH_PULL_PROMISING,
    ModelConfig,
    ProgramCache,
    execute_instruction,
    promise_steps,
    resolve_vm_features,
    tso_flush_steps,
)
from repro.memory.exploration import explore
from repro.memory.state import initial_state, tget
from repro.obs import metrics
from tests.test_await_reduction import PROMISE_FIRST_COUNTEREXAMPLES
from tests.test_promise_gate import _agrees_with_reference, _catalog_test

X, Y = 0x10, 0x20


def _fenced_load_then_store(*extra):
    """Thread 0 may promise X=1, read thread 1's later Y=1 and then pass
    a full barrier: its write floor rises past the promise, which can
    no longer be fulfilled."""
    t0 = ThreadBuilder(0).load("a", Y).barrier("full").store(X, 1)
    t1 = ThreadBuilder(1).store(Y, 1).load("b", X)
    return build_program(
        [t0, t1, *extra], observed={0: ["a"], 1: ["b"]},
        initial_memory={X: 0, Y: 0},
    )


#: Catalog tests whose Arm exploration the check cuts, and LB, where it
#: never fires: after its promise a thread only loads another location,
#: which raises no store floor.
CATALOG = [
    ("LB", False),
    ("ISA2", True),
    ("VM-walk-cache[full-tlbi]", True),
    ("VM-walk-cache[leaf-only-tlbi]", True),
]


class TestAgainstReference:
    @pytest.mark.parametrize("name,fires", CATALOG,
                             ids=[name for name, _ in CATALOG])
    def test_catalog(self, name, fires):
        test = _catalog_test(name)
        _sc, rm = litmus_configs(test)
        result = _agrees_with_reference(test.program, rm)
        assert (result.stats.dead_promises_pruned > 0) == fires

    def test_genome_sweep(self):
        """99 fixed-seed genomes, a third per profile, at one promise,
        and the first 12 at two: no mismatch, no budget cut."""
        pruned = 0
        for seed in range(99):
            profile = ("plain", "fenced", "sync")[seed % 3]
            genome = random_genome(
                profile, derive_rng(seed, "dead-promise", profile),
            )
            program = build(genome)
            for promises in (1, 2) if seed < 12 else (1,):
                cfg = ModelConfig(
                    relaxed=True, max_promises_per_thread=promises,
                )
                result = _agrees_with_reference(program, cfg)
                pruned += result.stats.dead_promises_pruned
        assert pruned > 0


class TestGates:
    def test_fires_on_a_passed_promise(self):
        result = _agrees_with_reference(
            _fenced_load_then_store(), PROMISING_ARM,
        )
        assert result.stats.dead_promises_pruned > 0

    def test_off_under_pushpull(self):
        result = explore(_fenced_load_then_store(), PUSH_PULL_PROMISING)
        assert result.stats.dead_promises_pruned == 0
        assert result.stats.doomed_pruned == 0

    def test_off_while_a_panic_is_reachable(self):
        """A third thread that may always still panic keeps every dead
        state: a run that panics may end with the promise outstanding."""
        t2 = ThreadBuilder(2).panic("boom")
        result = _agrees_with_reference(
            _fenced_load_then_store(t2), PROMISING_ARM,
        )
        assert result.stats.dead_promises_pruned == 0

    def test_on_once_no_panic_is_reachable(self):
        """A panic behind a branch stops keeping dead states once its
        thread has branched past it and halted."""
        t2 = ThreadBuilder(2)
        done = t2.fresh_label("done")
        t2.load("c", X).bz(Reg("c"), done).panic("boom").label(done)
        result = _agrees_with_reference(
            _fenced_load_then_store(t2), PROMISING_ARM,
        )
        assert result.stats.dead_promises_pruned > 0
        assert any(b.panic == "boom" for b in result.behaviors)


def test_the_metric_reports_the_counter():
    test = _catalog_test("ISA2")
    _sc, rm = litmus_configs(test)
    metrics.REGISTRY.reset()
    metrics.enable()
    try:
        result = explore(test.program, rm)
        snap = metrics.REGISTRY.as_dict()
    finally:
        metrics.disable()
        metrics.REGISTRY.reset()
    assert result.stats.dead_promises_pruned > 0
    assert snap["explore.dead_promises_pruned"]["value"] == (
        result.stats.dead_promises_pruned
    )


# ---------------------------------------------------------------------------
# the premise: no step lowers coh[L], vwn or vctrl
# ---------------------------------------------------------------------------

def _lowered(before, after):
    """The views of *before* that *after* lowers, by name."""
    out = []
    if after.vwn < before.vwn:
        out.append("vwn")
    if after.vctrl < before.vctrl:
        out.append("vctrl")
    out.extend(
        f"coh[{loc:#x}]" for loc, ts in before.coh
        if tget(after.coh, loc, 0) < ts
    )
    return out


def _check_monotone(program, cfg, max_states=20_000):
    """Walk the bare step relation — every thread's instruction, promise
    and store-buffer steps, as the reference DFS takes them — and assert
    that no edge lowers any thread's ``coh[L]``, ``vwn`` or ``vctrl``.
    Returns the number of edges checked."""
    cfg = resolve_vm_features(cfg)
    cache = ProgramCache(program)
    start = initial_state(len(program.threads), cfg.initial_ownership)
    seen = {start}
    stack = [start]
    edges = 0
    while stack:
        state = stack.pop()
        for tidx in range(len(state.threads)):
            for succ in (
                tso_flush_steps(cache, state, tidx, cfg)
                + execute_instruction(cache, state, tidx, cfg)
                + promise_steps(cache, state, tidx, cfg)
            ):
                edges += 1
                for t, (before, after) in enumerate(
                    zip(state.threads, succ.threads)
                ):
                    lowered = _lowered(before, after)
                    assert not lowered, (
                        f"{program.name}: thread {t} lowered {lowered} "
                        f"at pc {before.pc}"
                    )
                if succ not in seen and len(succ.memory) <= cfg.max_memory:
                    seen.add(succ)
                    stack.append(succ)
        assert len(seen) <= max_states, f"{program.name}: budget cut"
    return edges


def _monotone_subjects():
    for name, _fires in CATALOG:
        test = _catalog_test(name)
        _sc, rm = litmus_configs(test)
        yield name, test.program, rm
    test = _catalog_test("SB")
    yield "SB[tso]", test.program, tso_config(test)
    yield "promise_heavy", promise_heavy_program(), ModelConfig(
        relaxed=True, max_promises_per_thread=1,
    )
    for genome in PROMISE_FIRST_COUNTEREXAMPLES:
        yield genome.name, build(genome), ModelConfig(
            relaxed=True, max_promises_per_thread=2,
        )
    yield "fenced", _fenced_load_then_store(), PROMISING_ARM
    yield "fenced[push/pull]", _fenced_load_then_store(), PUSH_PULL_PROMISING
    for seed in range(12):
        profile = ("plain", "fenced", "sync")[seed % 3]
        genome = random_genome(
            profile, derive_rng(seed, "dead-promise", profile),
        )
        yield f"genome-{seed}", build(genome), dataclasses.replace(
            PROMISING_ARM, max_promises_per_thread=2,
        )


def test_no_step_lowers_a_store_floor_view():
    """The exactness premise: ``coh[L]``, ``vwn`` and ``vctrl`` only
    ever grow, over every edge of the bare step relation on the
    programs above (Arm, TSO, push/pull, an MMU under walk-cache)."""
    checked = {
        name: _check_monotone(program, cfg)
        for name, program, cfg in _monotone_subjects()
    }
    assert all(checked.values()), checked
