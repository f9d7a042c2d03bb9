"""Mutation-killing suite: the conformance oracles must catch seeded bugs.

"Zero disagreements" from a fuzzer is only evidence if the fuzzer can
be shown to fire when the engine is actually broken.  Each test here
switches on one seeded bug class from :mod:`repro.memory.mutants` —
a weakened full-barrier semantics, a DRF monitor that swallows
violations, a doomed-state reduction that drops live states — and
asserts the differential harness detects it within a small
fixed-seed budget, shrinking the witness to at most 8 operations.

The bounded budgets double as a sensitivity measurement: if a future
generator change makes a mutant survive its budget, this suite fails
and the generator (not the budget) should be fixed.
"""

import pytest

from repro.conformance import FuzzConfig, run_fuzz
from repro.conformance.oracles import check_program
from repro.memory import mutants

#: (mutant, generation profiles that expose it, expected oracle, budget)
MUTANT_MATRIX = [
    ("weaken-barrier-full", ("fenced",), "equivalence", 40),
    ("weaken-drf-monitor", ("sync",), "monitor", 20),
    ("bmc-drop-clause", ("plain",), "backend", 40),
    ("bmc-off-by-one-bound", ("plain",), "backend", 40),
    ("lost-flush", ("plain",), "portability", 40),
    ("read-skips-own-buffer", ("plain",), "portability", 40),
    ("doomed-skips-current-store", ("plain",), "reduction", 60),
]


@pytest.mark.parametrize(
    "mutant,profiles,oracle,budget",
    MUTANT_MATRIX,
    ids=[m[0] for m in MUTANT_MATRIX],
)
class TestMutantsAreKilled:
    def test_mutant_is_detected_and_shrunk(
        self, mutant, profiles, oracle, budget
    ):
        with mutants.seeded(mutant):
            report = run_fuzz(FuzzConfig(
                seed=0, budget=budget, profiles=profiles, max_findings=8,
            ))
            assert report.findings, (
                f"{mutant} survived {budget} programs on {profiles}"
            )
            # The designated oracle must fire within the budget; other
            # oracles firing too is redundant detection, not a failure
            # (e.g. unsound POR drops behaviors from one model, which
            # the cross-model portability oracle also notices).
            matching = [f for f in report.findings if f.oracle == oracle]
            assert matching, (
                f"{mutant}: oracle {oracle!r} never fired; got "
                + ", ".join(sorted({f.oracle for f in report.findings}))
            )
            finding = matching[0]
            assert finding.shrunk is not None
            assert finding.shrunk.size() <= 8, (
                f"{mutant}: shrunk counterexample has "
                f"{finding.shrunk.size()} ops"
            )
        # The context manager restored the honest engine.
        assert not mutants.active()

    def test_same_seeds_are_clean_without_the_mutant(
        self, mutant, profiles, oracle, budget
    ):
        report = run_fuzz(FuzzConfig(
            seed=0, budget=budget, profiles=profiles, max_findings=2,
        ))
        assert report.ok, "\n".join(f.describe() for f in report.findings)


class TestTSOPortabilityKills:
    """Each store-buffer mutant breaks exactly one containment
    direction, and :func:`~repro.vrm.portability.check_portability`
    names it on a deterministic witness program — no fuzzing budget
    involved.  ``lost-flush`` drops a buffered write (SC ⊄ TSO on the
    store-buffering shape); ``read-skips-own-buffer`` defeats store
    forwarding, which only a program reading its own recent write can
    see (TSO ⊄ Arm on the CoWW shape — Arm coherence never lets a
    thread read past its own latest store)."""

    @staticmethod
    def _by_name(name):
        from repro.litmus.catalog import full_corpus

        return next(t for t in full_corpus() if t.name == name).program

    def test_lost_flush_breaks_sc_subset_tso(self):
        from repro.vrm.portability import check_portability

        sb = self._by_name("SB")
        assert check_portability(sb) == []
        with mutants.seeded("lost-flush"):
            problems = check_portability(sb)
        assert problems, "lost-flush survived the SB containment check"
        assert any("SC ⊄ TSO" in p for p in problems)

    def test_read_skips_own_buffer_breaks_tso_subset_arm(self):
        from repro.vrm.portability import check_portability

        coww = self._by_name("CoWW")
        assert check_portability(coww) == []
        with mutants.seeded("read-skips-own-buffer"):
            problems = check_portability(coww)
        assert problems, (
            "read-skips-own-buffer survived the CoWW containment check"
        )
        assert any("TSO ⊄ ARM" in p for p in problems)


class TestReductionGateKills:
    """Fuzz genomes have no branches, ``Mov`` instructions or panics,
    and rarely two identical threads, so the reduction-gate and
    symmetry mutants are killed on pinned programs."""

    def test_await_loop_carried_is_killed_by_reduction(self):
        from tests.test_await_reduction import pointer_chasing_program

        program = pointer_chasing_program()
        assert check_program(program, ("reduction",)) == []
        with mutants.seeded("await-loop-carried"):
            found = check_program(program, ("reduction",))
        assert [d.oracle for d in found] == ["reduction"], found
        assert "reference-only: {t0.r=0;" in found[0].detail

    def test_ample_ignores_panic_is_killed_by_por(self):
        from repro.ir import ThreadBuilder, build_program

        t0 = ThreadBuilder(0)
        t0.mov("r0", 1)
        t1 = ThreadBuilder(1)
        t1.panic("boom")
        program = build_program([t0, t1], observed={0: ["r0"]})
        assert check_program(program, ("por",)) == []
        with mutants.seeded("ample-ignores-panic"):
            found = check_program(program, ("por",))
        assert [d.oracle for d in found] == ["por"], found
        assert "unreduced-only: {t0.r0=None; PANIC(boom)}" in found[0].detail

    def test_symmetry_skips_orbit_is_killed_by_reduction(self):
        from repro.ir import ThreadBuilder, build_program

        threads = []
        for tid in range(2):
            b = ThreadBuilder(tid)
            b.faa("r", 0x40)
            threads.append(b)
        program = build_program(
            threads, observed={0: ["r"], 1: ["r"]}, initial_memory={0x40: 0},
        )
        assert check_program(program, ("reduction",)) == []
        with mutants.seeded("symmetry-skips-orbit"):
            found = check_program(program, ("reduction",))
        assert [d.oracle for d in found] == ["reduction"], found
        assert "reference-only: {t0.r=1, t1.r=0;" in found[0].detail


class TestTSOCrossCheck:
    """The ``portability`` conformance oracle re-derives the SC, TSO
    and Arm behavior sets of a program and reports when the sandwich
    SC ⊆ TSO ⊆ Arm breaks."""

    @staticmethod
    def _sb_program():
        from repro.litmus.catalog import full_corpus

        return next(t for t in full_corpus() if t.name == "SB").program

    def test_cross_check_passes_on_the_honest_engine(self):
        assert check_program(self._sb_program(), ("portability",)) == []

    def test_cross_check_raises_under_lost_flush(self):
        with mutants.seeded("lost-flush"):
            found = check_program(self._sb_program(), ("portability",))
        assert any(
            d.oracle == "portability" and "SC ⊄ TSO" in d.detail
            for d in found
        ), found


class TestMutantRegistry:
    def test_unknown_mutant_is_rejected(self):
        with pytest.raises(ValueError):
            mutants.enable("definitely-not-a-mutant")

    def test_seeded_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with mutants.seeded("lost-flush"):
                assert mutants.enabled("lost-flush")
                raise RuntimeError("boom")
        assert not mutants.active()

    def test_fingerprint_is_stable_and_sorted(self):
        assert mutants.fingerprint() == ""
        with mutants.seeded("weaken-drf-monitor", "lost-flush"):
            assert mutants.fingerprint() == (
                "lost-flush,weaken-drf-monitor"
            )
        assert mutants.fingerprint() == ""

    def test_mutants_change_exploration_cache_keys(self):
        from repro.conformance import build, random_genome, derive_rng
        from repro.memory.cache import exploration_key
        from repro.memory.semantics import SC

        program = build(random_genome("plain", derive_rng(0, "key")))
        honest = exploration_key(program, SC, None, False, True)
        with mutants.seeded("lost-flush"):
            mutated = exploration_key(program, SC, None, False, True)
        assert honest != mutated
        assert honest == exploration_key(program, SC, None, False, True)
