"""Thread-symmetry reduction: identical CPUs explored up to a permutation.

The explorer keys its visited set on each state up to a permutation of
identical threads (:meth:`repro.memory.semantics.ProgramCache.
symmetry_groups`) and closes every terminal behavior under those
permutations.  The unreduced reference DFS
(:func:`repro.conformance.oracles._reference_explore`) reduces nothing,
so it is the check here: gen_vmid under all three models and fixed-seed
genomes whose two threads run the same operations must give exactly
the reference's behaviors.  The gate tests pin which threads group
together and where the reduction turns itself off.  Under push/pull the
key and the terminal closure also rename the owners and the CPUs a
panic names; the key tests pin that, and the monitored sweep compares
every SeKVM wDRF verdict with the reduction bypassed.
"""

import pickle
import re

import pytest

from repro import config
from repro.conformance.genome import Genome, build, random_genome
from repro.conformance.oracles import _reference_explore, check_program
from repro.ir import ThreadBuilder, build_program
from repro.ir.expr import Reg
from repro.ir.program import MMUConfig
from repro.litmus import catalog
from repro.litmus.generate import derive_rng
from repro.memory import cache as explore_cache
from repro.memory import exploration
from repro.memory.datatypes import ExplorationMonitor, Message
from repro.memory.exploration import _symmetric_key, explore
from repro.memory.semantics import (
    PROMISING_ARM,
    SC,
    CpuPanic,
    ModelConfig,
    ProgramCache,
    rename_panic,
)
from repro.memory.state import StateInterner, initial_state
from repro.memory.tso import TSO
from repro.sekvm.verify import verify_all_versions
from repro.vrm.barrier_misuse import BarrierMisuseMonitor
from repro.vrm.drf_kernel import DRFKernelMonitor

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


def _pushpull_pair():
    """Two identical CPUs that pull, touch and push X, then read X once
    more without pulling it: their panics name both CPUs."""
    threads = []
    for tid in range(2):
        b = ThreadBuilder(tid)
        b.pull(X).load("r", X).store(X, 1).push(X).load("s", X)
        threads.append(b)
    return build_program(
        threads, observed={0: ["r"], 1: ["r"]}, initial_memory={X: 0},
        name="pushpull-pair",
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
        dict(monitors=[DRFKernelMonitor(), ExplorationMonitor()]),
    ], ids=["keep-terminal-states", "monitors", "one-monitor-not-symmetric"])
    def test_off_when_states_are_observed(self, kwargs):
        program = _faa_pair()
        result = explore(program, PROMISING_ARM, **kwargs)
        assert result.stats.symmetric_threads == 0
        assert result.behaviors == explore(program, PROMISING_ARM).behaviors

    @pytest.mark.parametrize("cfg", [
        ModelConfig(relaxed=True, initial_ownership=((X, 0),)),
        ModelConfig(relaxed=True, vm_features=frozenset({"bbm"})),
    ], ids=["initial-ownership", "vm-features"])
    def test_off_when_the_config_names_cpus(self, cfg):
        assert explore(_faa_pair(), cfg).stats.symmetric_threads == 0

    @pytest.mark.parametrize("cfg", [
        ModelConfig(relaxed=True, pushpull=True),
        ModelConfig(relaxed=True, owned_access_required=frozenset({X})),
        ModelConfig(relaxed=True, pushpull=True,
                    owned_access_required=frozenset({X})),
    ], ids=["pushpull", "owned-access", "pushpull-owned-access"])
    def test_on_under_pushpull(self, cfg):
        """Push/pull ownership and its panics name CPUs, and the
        reduction renames them: every panic the reference reaches on
        either CPU must survive the terminal closure."""
        program = _pushpull_pair()
        result = explore(program, cfg)
        assert result.stats.symmetric_threads == 2
        reference = _reference_explore(
            program, cfg, sorted(program.initial_memory)
        )
        assert reference.complete
        assert result.behaviors == reference.behaviors
        assert result.states_explored < reference.states_explored

    def test_on_with_symmetric_monitors(self, monkeypatch):
        cfg = ModelConfig(relaxed=True, pushpull=True,
                          owned_access_required=frozenset({X}))
        verdicts = []
        for bypass in (False, True):
            if bypass:
                monkeypatch.setattr(
                    exploration, "_symmetry_applies", lambda *_: False
                )
            monitors = [DRFKernelMonitor(), BarrierMisuseMonitor()]
            result = explore(_pushpull_pair(), cfg, monitors=monitors)
            assert result.stats.symmetric_threads == (0 if bypass else 2)
            verdicts.append([m.violations for m in monitors])
        # The monitors see one representative per orbit, so a
        # counterexample may name the CPUs the other way round.
        reduced, unreduced = (
            [[re.sub(r"CPU [01]", "CPU ?", v) for v in vs] for vs in run]
            for run in verdicts
        )
        assert reduced == unreduced
        assert all(len(vs) == 1 for vs in verdicts[0])

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


#: Two thread contexts that sort as ``CTX_A < CTX_B``.
CTX_A = initial_state(1).threads[0]._replace(pc=1)
CTX_B = CTX_A._replace(pc=2)
SWAP = {0: 1, 1: 0}


def _pair_state(contexts, ownership=(), pending=(), memory=(), panic=None):
    return initial_state(2)._replace(
        threads=tuple(contexts), ownership=ownership,
        pending_release=pending, memory=memory, panic=panic,
    )


@pytest.mark.parametrize("interned", [False, True], ids=["plain", "interned"])
class TestKey:
    """The visited-set key renames every tid the state records."""

    @staticmethod
    def _key(interned):
        interner = StateInterner() if interned else None
        return _symmetric_key(((0, 1),), (0, 1), interner)

    def test_a_swap_with_its_owners_swapped_has_an_equal_key(self, interned):
        state = _pair_state(
            (CTX_B, CTX_A), ownership=((X, 0),), pending=((Y, 1),),
            memory=(Message(1, X, 1, 0, False),),
            panic=CpuPanic("owned-access", 0, X, 1),
        )
        swapped = _pair_state(
            (CTX_A, CTX_B), ownership=((X, 1),), pending=((Y, 0),),
            memory=(Message(1, X, 1, 1, False),),
            panic=CpuPanic("owned-access", 1, X, 0),
        )
        key = self._key(interned)
        assert key(state) == key(swapped)

    @pytest.mark.parametrize("field", ["ownership", "pending", "panic"])
    def test_which_cpu_owns_splits_equal_sorted_contexts(
        self, interned, field
    ):
        """Both states sort to contexts ``(A, B)``; renaming the second
        hands its location (or its panic) to the other CPU."""
        named = {
            "ownership": dict(ownership=((X, 0),)),
            "pending": dict(pending=((X, 0),)),
            "panic": dict(panic=CpuPanic("unpulled-access", 0, X)),
        }[field]
        key = self._key(interned)
        assert key(_pair_state((CTX_A, CTX_B), **named)) != key(
            _pair_state((CTX_B, CTX_A), **named)
        )


class TestPanicRename:
    @pytest.mark.parametrize("kind", sorted(CpuPanic.FORMATS))
    def test_each_format_renames_and_round_trips(self, kind):
        reason = CpuPanic(kind, 0, X, 1)
        renamed = rename_panic(reason, SWAP)
        assert renamed == CpuPanic.FORMATS[kind].format(cpu=1, loc=X, owner=0)
        assert renamed != reason
        back = rename_panic(renamed, SWAP)
        assert back == reason and type(back) is CpuPanic
        copy = pickle.loads(pickle.dumps(reason))
        assert type(copy) is CpuPanic and rename_panic(copy, SWAP) == renamed
        # Text equal to a CPU panic, as a Panic instruction would give it.
        assert rename_panic(str(reason), SWAP) == reason

    def test_six_formats(self):
        assert len(CpuPanic.FORMATS) == 6

    def test_a_panic_instruction_reason_is_left_alone(self):
        text = str(CpuPanic("unpulled-access", 0, X))
        threads = []
        for tid in range(2):
            b = ThreadBuilder(tid)
            b.panic(text)
            threads.append(b)
        program = build_program(threads, initial_memory={X: 0})
        cfg = ModelConfig(relaxed=True, pushpull=True)
        result = explore(program, cfg)
        assert result.stats.symmetric_threads == 2
        assert {b.panic for b in result.behaviors} == {text}
        assert result.behaviors == _reference_explore(
            program, cfg, sorted(program.initial_memory)
        ).behaviors


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


def _numbers_erased(evidence):
    return tuple(re.sub(r"\d+", "#", line) for line in evidence)


def _sweep_results():
    """Every ConditionResult of the full SeKVM sweep, computed afresh."""
    explore_cache.clear_memory_cache()
    with config.override(explore_cache=False):
        outcomes = verify_all_versions(include_buggy=True, jobs=1)
    explore_cache.clear_memory_cache()
    return [
        (f"{outcome.version.name}/{case.case.name}", cond, result)
        for outcome in outcomes for case in outcome.outcomes
        for cond, result in case.report.results.items()
    ]


def test_monitored_sweep_matches_the_unreduced_verdicts(monkeypatch):
    """The wDRF passes run monitored on push/pull, where the reduction
    now fires.  Every verdict and violation text of the 208 specs must
    equal the run with the reduction bypassed; only the gen_vmid
    evidence may differ, and only in its state and terminal counts."""
    reduced = _sweep_results()
    monkeypatch.setattr(exploration, "_symmetry_applies", lambda *_: False)
    unreduced = _sweep_results()
    assert len(reduced) == 1248
    assert [r[:2] for r in reduced] == [r[:2] for r in unreduced]
    counted = set()
    for (name, cond, a), (_, _, b) in zip(reduced, unreduced):
        assert (a.holds, a.exhaustive, a.violations) == (
            b.holds, b.exhaustive, b.violations
        ), (name, cond)
        if a.evidence != b.evidence:
            assert "gen_vmid" in name, (name, cond)
            assert _numbers_erased(a.evidence) == _numbers_erased(b.evidence)
            counted.add(name.split("/")[1])
    assert counted == {"gen_vmid[verified]", "gen_vmid[no-barriers]"}
