"""The certification searches' store-reachability cuts against an uncut
reference.

``ProgramCache.promisable_from`` stops the promise-candidate lookahead
(``semantics._collect_search`` and ``promise_steps``) where no plain
store is reachable, and ``ProgramCache.fulfillable_from`` stops the
certification search (``semantics._certify_search``) where no store
that could fulfil a promise is.  The unreduced reference DFS
(:func:`repro.conformance.oracles._reference_explore`) certifies
through the same two cuts, so the ``reduction`` oracle cannot see a
fault in them.  Here the reference runs with both cuts replaced by
"the thread has not halted" (``0 <= pc < thread_len``), which asks
every search to run to its end, and the shipped explorer must give the
same behaviors on the Arm catalog, ``promise_heavy`` and a fixed-seed
genome sweep.

``Example2-gen_vmid[buggy]`` is left out: uncut, its reference alone
takes 51,421 states.
"""

import pytest

from repro.conformance.genome import build, random_genome
from repro.conformance.oracles import _reference_explore
from repro.litmus.catalog import full_corpus, promise_heavy_program
from repro.litmus.generate import derive_rng
from repro.litmus.runner import litmus_configs
from repro.memory.exploration import explore
from repro.memory.semantics import ModelConfig, ProgramCache

SLOW = "Example2-gen_vmid[buggy]"

CATALOG = [test for test in full_corpus() if test.name != SLOW]


def _not_halted(cache, tidx, pc):
    return 0 <= pc < cache.thread_len(tidx)


def _agrees_with_uncut_reference(program, cfg):
    """Both searches complete with the same behaviors; the reference
    runs with neither cut."""
    observe = sorted(program.initial_memory)
    shipped = explore(program, cfg, observe_locs=observe)
    assert shipped.complete
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProgramCache, "promisable_from", _not_halted)
        patch.setattr(ProgramCache, "fulfillable_from", _not_halted)
        reference = _reference_explore(program, cfg, observe)
    assert reference.complete
    assert shipped.behaviors == reference.behaviors


@pytest.mark.parametrize("test", CATALOG, ids=[t.name for t in CATALOG])
def test_arm_catalog(test):
    _sc, rm = litmus_configs(test)
    _agrees_with_uncut_reference(test.program, rm)


def test_promise_heavy():
    cfg = ModelConfig(relaxed=True, max_promises_per_thread=1)
    _agrees_with_uncut_reference(promise_heavy_program(), cfg)


def test_genome_sweep():
    """20 fixed-seed ``plain`` genomes at one promise."""
    cfg = ModelConfig(relaxed=True, max_promises_per_thread=1)
    for seed in range(20):
        genome = random_genome(
            "plain", derive_rng(seed, "certification-cuts", "plain"),
        )
        _agrees_with_uncut_reference(build(genome), cfg)
