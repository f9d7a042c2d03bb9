"""Thread-symmetry reduction: identical CPUs explored up to a permutation.

The explorer keys its visited set on each state up to a permutation of
identical threads (:meth:`repro.memory.semantics.ProgramCache.
symmetry_groups`) and closes every terminal behavior under those
permutations.  The unreduced reference DFS
(:func:`repro.conformance.oracles._reference_explore`) reduces nothing,
so it is the check here: gen_vmid under all three models and fixed-seed
genomes whose two threads run the same operations must give exactly
the reference's behaviors.  The gate tests pin which threads group
together and where the reduction turns itself off.
"""

import pytest

from repro.conformance.genome import Genome, build, random_genome
from repro.conformance.oracles import _reference_explore, check_program
from repro.ir import ThreadBuilder, build_program
from repro.ir.expr import Reg
from repro.ir.program import MMUConfig
from repro.litmus import catalog
from repro.litmus.generate import derive_rng
from repro.memory.datatypes import ExplorationMonitor
from repro.memory.exploration import explore
from repro.memory.semantics import (
    PROMISING_ARM,
    SC,
    ModelConfig,
    ProgramCache,
)
from repro.memory.tso import TSO

X, Y = 0x40, 0x48


def _faa_pair(n_threads=2):
    threads = []
    for tid in range(n_threads):
        b = ThreadBuilder(tid)
        b.faa("r", X)
        threads.append(b)
    return build_program(
        threads, observed={tid: ["r"] for tid in range(n_threads)},
        initial_memory={X: 0}, name="faa-pair",
    )


def symmetric_genome(profile, seed):
    """Thread 0 of a fixed-seed random genome, run by both threads."""
    drawn = random_genome(profile, derive_rng(seed, "symmetric", profile))
    ops = drawn.threads[0]
    return Genome(profile, (ops, ops), name=f"sym-{profile}-{seed}")


def _agrees_with_reference(program, cfg):
    observe = sorted(program.initial_memory)
    reduced = explore(program, cfg, observe_locs=observe)
    assert reduced.complete
    reference = _reference_explore(program, cfg, observe)
    assert reference.complete
    assert reduced.behaviors == reference.behaviors
    return reduced


class TestGroups:
    def test_gen_vmid_labels_resolve_to_one_group(self):
        """gen_vmid's threads differ only in label names."""
        program = catalog.example2_gen_vmid(True)
        labels = [set(t.labels()) for t in program.threads]
        assert labels[0] != labels[1]
        assert ProgramCache(program).symmetry_groups() == ((0, 1),)

    def test_three_identical_threads_form_one_group(self):
        assert ProgramCache(_faa_pair(3)).symmetry_groups() == ((0, 1, 2),)

    def test_observed_registers_split_a_group(self):
        t0 = ThreadBuilder(0)
        t0.faa("r", X)
        t1 = ThreadBuilder(1)
        t1.faa("r", X)
        program = build_program(
            [t0, t1], observed={0: ["r"]}, initial_memory={X: 0},
        )
        assert ProgramCache(program).symmetry_groups() == ()

    def test_different_branch_targets_split_a_group(self):
        threads = []
        for tid, target in enumerate(("A", "B")):
            b = ThreadBuilder(tid)
            b.load("r", X).bz(Reg("r"), target)
            b.label("A").store(Y, 1).label("B")
            threads.append(b)
        program = build_program(threads, initial_memory={X: 0, Y: 0})
        assert ProgramCache(program).symmetry_groups() == ()

    def test_only_gen_vmid_is_symmetric_in_the_catalog(self):
        symmetric = [
            test.name for test in catalog.full_corpus()
            if ProgramCache(test.program).symmetry_groups()
        ]
        assert symmetric == [
            "Example2-gen_vmid[buggy]", "Example2-gen_vmid[fixed]",
        ]


class TestGate:
    """The reduction fires only where no thread id is read."""

    def test_fires_on_a_plain_exploration(self):
        result = explore(_faa_pair(), PROMISING_ARM)
        assert result.stats.symmetric_threads == 2
        assert len(result.behaviors) == 2

    def test_asymmetric_program_reports_zero(self):
        t0 = ThreadBuilder(0)
        t0.store(X, 1)
        t1 = ThreadBuilder(1)
        t1.load("r", X)
        program = build_program(
            [t0, t1], observed={1: ["r"]}, initial_memory={X: 0},
        )
        assert explore(program, PROMISING_ARM).stats.symmetric_threads == 0

    @pytest.mark.parametrize("kwargs", [
        dict(keep_terminal_states=True),
        dict(monitors=[ExplorationMonitor()]),
    ], ids=["keep-terminal-states", "monitors"])
    def test_off_when_states_are_observed(self, kwargs):
        program = _faa_pair()
        result = explore(program, PROMISING_ARM, **kwargs)
        assert result.stats.symmetric_threads == 0
        assert result.behaviors == explore(program, PROMISING_ARM).behaviors

    @pytest.mark.parametrize("cfg", [
        ModelConfig(relaxed=True, pushpull=True),
        ModelConfig(relaxed=True, initial_ownership=((X, 0),)),
        ModelConfig(relaxed=True, owned_access_required=frozenset({X})),
        ModelConfig(relaxed=True, vm_features=frozenset({"bbm"})),
    ], ids=["pushpull", "initial-ownership", "owned-access", "vm-features"])
    def test_off_when_the_config_names_cpus(self, cfg):
        assert explore(_faa_pair(), cfg).stats.symmetric_threads == 0

    def test_off_with_an_mmu(self):
        b0, b1 = ThreadBuilder(0), ThreadBuilder(1)
        b0.faa("r", X)
        b1.faa("r", X)
        program = build_program(
            [b0, b1], observed={0: ["r"], 1: ["r"]},
            initial_memory={X: 0, 0x100: 0}, mmu=MMUConfig(root=0x100),
        )
        assert ProgramCache(program).symmetry_groups() == ((0, 1),)
        assert explore(program, PROMISING_ARM).stats.symmetric_threads == 0


class TestAgainstReference:
    @pytest.mark.parametrize("model", [PROMISING_ARM, SC, TSO],
                             ids=["arm", "sc", "tso"])
    def test_gen_vmid_fixed(self, model):
        """The ``reduction`` oracle explores the relaxed model only, so
        every model is compared with the reference directly."""
        result = _agrees_with_reference(catalog.example2_gen_vmid(True), model)
        assert result.stats.symmetric_threads == 2

    def test_gen_vmid_fixed_reduction_oracle(self):
        found = check_program(catalog.example2_gen_vmid(True), ("reduction",))
        assert found == [], "\n".join(d.describe() for d in found)

    def test_three_threads(self):
        _agrees_with_reference(_faa_pair(3), PROMISING_ARM)

    @pytest.mark.parametrize("model", [SC, TSO], ids=["sc", "tso"])
    def test_two_groups(self, model):
        """Threads 0/2 and 1/3 form two groups: the terminal closure
        runs over the product of their permutations."""
        threads = []
        for tid in range(4):
            b = ThreadBuilder(tid)
            if tid % 2 == 0:
                b.faa("r", X).load("s", Y)
            else:
                b.store(Y, 1).load("s", X)
            threads.append(b)
        program = build_program(
            threads,
            observed={tid: ["r", "s"] if tid % 2 == 0 else ["s"]
                      for tid in range(4)},
            initial_memory={X: 0, Y: 0},
        )
        assert ProgramCache(program).symmetry_groups() == ((0, 2), (1, 3))
        result = _agrees_with_reference(program, model)
        assert result.stats.symmetric_threads == 4


#: Fixed-seed symmetric genomes: 20 at one promise, 5 at two.  At two
#: promises seeds 3 and 8 agree too, but their reference search takes
#: 25-35 s each, so the tier-1 sweep skips them.
GENOME_CASES = (
    [(profile, seed, 1) for profile in ("plain", "fenced")
     for seed in range(10)]
    + [("plain", seed, 2) for seed in (0, 1, 2, 4, 9)]
)


@pytest.mark.parametrize(
    "profile,seed,promises", GENOME_CASES,
    ids=[f"{p}-{s}-p{n}" for p, s, n in GENOME_CASES],
)
def test_symmetric_genome_matches_reference(profile, seed, promises):
    """The comparison the ``reduction`` oracle makes, with both searches
    required to complete so that no case passes vacuously."""
    program = build(symmetric_genome(profile, seed))
    assert ProgramCache(program).symmetry_groups() == ((0, 1),)
    rm = ModelConfig(relaxed=True, max_promises_per_thread=promises)
    assert _agrees_with_reference(program, rm).stats.symmetric_threads == 2
