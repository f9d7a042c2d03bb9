"""Tier-1 tests for the differential conformance harness.

The fixed-seed suite is the promoted form of the fuzzing benchmark's
smoke coverage: ~50 deterministic programs through the full oracle
matrix on every test run, plus unit tests for the pieces the fuzzing
loop is built from — genome serialization, generation determinism, the
delta-debugging shrinker (minimality, determinism, budget), and corpus
persistence/replay.
"""

import functools
import json

import pytest

from repro.cli import main as cli_main
from repro.conformance import (
    PROFILES,
    CoverageMap,
    FuzzConfig,
    Genome,
    OpSpec,
    build,
    check_genome,
    derive_rng,
    engine_fingerprint,
    fuzz_parallel,
    iter_corpus,
    mutate,
    oracles_for,
    random_genome,
    replay_entry,
    run_fuzz,
    shrink,
    valid,
)
from repro.memory import mutants


class TestGenome:
    def test_json_round_trip(self):
        rng = derive_rng(5, "round-trip")
        for profile in PROFILES:
            genome = random_genome(profile, rng)
            again = Genome.from_json(
                json.loads(json.dumps(genome.to_json()))
            )
            assert again == genome

    def test_generation_is_deterministic(self):
        for profile in PROFILES:
            a = random_genome(profile, derive_rng(9, "gen", 3))
            b = random_genome(profile, derive_rng(9, "gen", 3))
            assert a == b
            assert repr(build(a)) == repr(build(b))

    def test_derive_rng_streams_are_independent(self):
        draws_a = [derive_rng(1, "x", i).random() for i in range(4)]
        draws_b = [derive_rng(1, "y", i).random() for i in range(4)]
        assert draws_a != draws_b
        assert len(set(draws_a)) == 4

    def test_mutation_preserves_validity(self):
        for profile in PROFILES:
            rng = derive_rng(2, "mut", profile)
            genome = random_genome(profile, rng)
            for _ in range(50):
                genome = mutate(genome, rng)
                assert valid(genome)
                build(genome)  # must always lower cleanly

    def test_sync_genomes_always_instrumented(self):
        rng = derive_rng(3, "sync")
        for _ in range(20):
            genome = random_genome("sync", rng)
            assert any(
                op.kind == "pull" for ops in genome.threads for op in ops
            )

    def test_fenced_build_inserts_barriers(self):
        genome = Genome(
            profile="fenced",
            threads=((OpSpec("store", 0, 1), OpSpec("load", 1, 1)),),
        )
        program = build(genome)
        kinds = [type(i).__name__ for i in program.threads[0].instrs]
        assert kinds == ["Store", "Barrier", "Load", "Barrier"]


class TestFixedSeedSuite:
    def test_fifty_programs_all_oracles_agree(self):
        report = run_fuzz(FuzzConfig(seed=0, budget=50, heavy_every=8))
        assert report.programs == 50
        assert report.ok, "\n".join(f.describe() for f in report.findings)
        # The run exercised every profile and did real exploration work.
        profiles_seen = {shape[0] for shape in report.coverage.shapes}
        assert profiles_seen == set(PROFILES)
        assert report.coverage.states_explored > 0

    def test_run_is_deterministic(self):
        # The serial loop, and the pool fan-out ``repro fuzz`` takes by
        # default (all CPUs).
        for run in (run_fuzz, functools.partial(fuzz_parallel, jobs=2)):
            a = run(FuzzConfig(seed=7, budget=12))
            b = run(FuzzConfig(seed=7, budget=12))
            assert a.ok and b.ok
            assert a.coverage.fingerprint() == b.coverage.fingerprint()
            assert a.programs == b.programs == 12

    def test_oracle_selection_per_profile(self):
        assert "equivalence" in oracles_for("fenced")
        assert "equivalence" not in oracles_for("plain")
        assert oracles_for("sync") == ("monitor",)
        assert "fuse" in oracles_for("sync", heavy=True)
        assert "jobs" in oracles_for("plain", heavy=True)

    def test_minutes_deadline_stops_the_loop(self):
        report = run_fuzz(FuzzConfig(seed=0, budget=None, minutes=1e-9))
        assert report.programs == 0


def _two_op_predicate(genome):
    """Synthetic shrink target: a store in thread 0 and a load in
    thread 1 (at any location) — minimal witness is exactly 2 ops."""
    if len(genome.threads) < 2:
        return False
    has_store = any(op.kind == "store" for op in genome.threads[0])
    has_load = any(op.kind == "load" for op in genome.threads[1])
    return has_store and has_load


class TestShrinker:
    def _bloated(self):
        ops0 = tuple(
            OpSpec(k, loc, v) for k, loc, v in [
                ("load", 1, 2), ("store", 1, 3), ("barrier_full", 0, 1),
                ("store", 0, 2), ("load", 0, 1),
            ]
        )
        ops1 = tuple(
            OpSpec(k, loc, v) for k, loc, v in [
                ("store", 1, 2), ("load", 1, 3), ("load", 0, 2),
                ("barrier_st", 0, 1),
            ]
        )
        return Genome(profile="plain", threads=(ops0, ops1))

    def test_shrinks_to_minimal_witness(self):
        result = shrink(self._bloated(), predicate=_two_op_predicate)
        assert result.size == 2
        assert _two_op_predicate(result.genome)
        kinds = [
            op.kind for ops in result.genome.threads for op in ops
        ]
        assert sorted(kinds) == ["load", "store"]

    def test_one_minimality(self):
        result = shrink(self._bloated(), predicate=_two_op_predicate)
        positions = [
            (t, i)
            for t, ops in enumerate(result.genome.threads)
            for i in range(len(ops))
        ]
        from repro.conformance.shrink import _without

        for pos in positions:
            assert not _two_op_predicate(_without(result.genome, [pos]))

    def test_shrink_is_deterministic(self):
        a = shrink(self._bloated(), predicate=_two_op_predicate)
        b = shrink(self._bloated(), predicate=_two_op_predicate)
        assert a.genome == b.genome
        assert a.evals == b.evals

    def test_operand_simplification(self):
        result = shrink(self._bloated(), predicate=_two_op_predicate)
        for ops in result.genome.threads:
            for op in ops:
                assert op.val == 1
                assert op.loc == 0

    def test_eval_budget_is_respected(self):
        result = shrink(
            self._bloated(), predicate=_two_op_predicate, max_evals=3
        )
        assert result.evals <= 3
        assert _two_op_predicate(result.genome)

    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            shrink(self._bloated())
        with pytest.raises(ValueError):
            shrink(
                self._bloated(), predicate=_two_op_predicate,
                oracle="containment",
            )


class TestCorpusReplay:
    def test_finding_round_trips_through_corpus(self, tmp_path):
        with mutants.seeded("weaken-barrier-full"):
            report = run_fuzz(FuzzConfig(
                seed=0, budget=40, profiles=("fenced",),
                corpus_dir=str(tmp_path), max_findings=1,
            ))
            assert report.findings, "seeded barrier bug was not detected"
            entries = list(iter_corpus(str(tmp_path)))
            assert entries
            path, entry = entries[0]
            # Either cross-model oracle may be first to see the
            # weakened barrier: fenced-vs-SC equivalence, or the BMC
            # backend (whose encoding keeps the honest barrier).
            assert entry["oracle"] in ("equivalence", "backend")
            assert entry["engine"]["mutants"] == "weaken-barrier-full"
            # Replay under the same (mutated) engine reproduces it...
            assert replay_entry(entry)
        # ...and under the honest engine it is gone, with the engine
        # fingerprint explaining why.
        assert not replay_entry(entry)
        assert engine_fingerprint()["mutants"] == ""

    def test_shrunk_genome_is_persisted_and_replayable(self, tmp_path):
        with mutants.seeded("weaken-barrier-full"):
            report = run_fuzz(FuzzConfig(
                seed=0, budget=40, profiles=("fenced",),
                corpus_dir=str(tmp_path), max_findings=1,
            ))
            _, entry = next(iter_corpus(str(tmp_path)))
            assert entry["shrunk_genome"] is not None
            shrunk = Genome.from_json(entry["shrunk_genome"])
            assert shrunk.size() <= Genome.from_json(entry["genome"]).size()
            assert check_genome(shrunk, oracles=(entry["oracle"],))


class TestInconclusive:
    def test_fuzz_counts_inconclusive_checks_apart(self, tmp_path,
                                                    monkeypatch):
        """A budget-cut check is neither a finding nor an agreement: it
        is counted, never shrunk and never written to the corpus."""
        from repro.conformance import engine
        from repro.conformance.oracles import Disagreement

        cut = Disagreement(
            oracle="reduction", inconclusive=True,
            detail="the reference RM search was cut by max_states=4",
        )
        monkeypatch.setattr(engine, "check_genome", lambda *a, **k: [cut])

        def no_shrink(*args, **kwargs):
            raise AssertionError("an inconclusive check was shrunk")

        monkeypatch.setattr(engine, "shrink", no_shrink)
        report = run_fuzz(FuzzConfig(
            seed=0, budget=3, profiles=("plain",), corpus_dir=str(tmp_path),
        ))
        assert report.findings == [] and report.ok
        assert report.inconclusive == 3
        assert list(tmp_path.iterdir()) == []
        summary = report.describe()
        assert "3 check(s) INCONCLUSIVE" in summary
        assert "all oracles agreed" not in summary

    @pytest.mark.parametrize("oracle,cut_model,search", [
        ("containment", "sc", "the SC search"),
        ("equivalence", "rm", "the RM search"),
        ("axiomatic", "rm", "the RM search"),
        ("por", "rm", "the reduced RM search"),
    ])
    def test_a_budget_cut_search_makes_the_oracle_inconclusive(
        self, oracle, cut_model, search
    ):
        """Store buffering cut at ``max_states=4``: the cut side's
        behavior set is a fragment, so comparing it would read as a
        pass or a false finding; the oracle says it compared nothing."""
        import dataclasses

        from repro.conformance.oracles import check_program
        from repro.litmus.catalog import full_corpus
        from repro.memory.semantics import PROMISING_ARM, SC

        program = next(t for t in full_corpus() if t.name == "SB").program
        models = {"sc": SC, "rm": PROMISING_ARM}
        models[cut_model] = dataclasses.replace(
            models[cut_model], max_states=4,
        )
        found = check_program(program, (oracle,), **models)
        assert [(d.oracle, d.inconclusive) for d in found] == [
            (oracle, True)
        ], found
        assert f"{search} was cut by max_states=4" in found[0].detail


class TestCoverage:
    def test_coverage_reports_new_territory(self):
        cov = CoverageMap()
        genome = random_genome("plain", derive_rng(0, "cov"))
        assert cov.observe(genome) is True
        assert cov.observe(genome) is False
        assert cov.programs == 2

    def test_merge_is_a_union(self):
        a, b = CoverageMap(), CoverageMap()
        a.observe(random_genome("plain", derive_rng(0, "a")))
        b.observe(random_genome("sync", derive_rng(0, "b")))
        before = a.fingerprint()
        a.merge(b)
        assert a.programs == 2
        assert a.fingerprint() >= before


class TestFuzzCLI:
    def test_exit_zero_on_agreement(self, capsys):
        assert cli_main(["fuzz", "--budget", "4", "--jobs", "1"]) == 0
        assert "all oracles agreed" in capsys.readouterr().out
