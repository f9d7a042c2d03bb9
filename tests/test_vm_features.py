"""The ``REPRO_VM_FEATURES`` behavior families: gating and detection.

Three properties anchor the feature gates:

1. **Flag-off bit-identity** — with no features enabled, exploration is
   bit-identical to the seed engine.  Asserted against the checked-in
   digest corpus, so the claim is anchored to recorded history, not to
   a same-process re-run.
2. **Flag-on neutrality** — enabling every feature must not change the
   behavior set of a program that never touches the MMU (the
   ``vm_neutral`` conformance oracle, run over the whole catalog in
   tests/test_differential.py; here we also assert digest equality
   through the environment knob).
3. **Mutant sensitivity** — each seeded VM-feature bug class is killed
   by the ``vm`` conformance profile within a small fixed-seed budget,
   with the witness shrunk to at most 8 operations.

Plus the cache-key discipline: feature sets (programmatic or via the
environment) are folded into exploration cache keys, so a featured run
can never replay a default-model result.
"""

import json
import pathlib

import pytest

from repro.conformance import FuzzConfig, run_fuzz
from repro.conformance.digests import behavior_digest
from repro.conformance.oracles import check_program
from repro.litmus.catalog import full_corpus
from repro.litmus.runner import litmus_configs
from repro.memory import explore, mutants
from repro.memory.cache import cached_explore, exploration_key
from repro.memory.semantics import (
    VM_FEATURES,
    ModelConfig,
    parse_vm_features,
    resolve_vm_features,
)

CORPUS = pathlib.Path(__file__).parent / "corpus" / "litmus_digests.json"

#: Feature-free catalog samples re-digested against the checked-in
#: corpus (cheap ones; the full sweep is test_corpus_regression.py).
_SAMPLES = ("MP", "SB", "LB", "CoRR")


def _tests_by_name():
    return {t.name: t for t in full_corpus()}


class TestFlagOffBitIdentity:
    def test_default_config_has_no_features(self):
        assert ModelConfig().vm_features == frozenset()
        assert ModelConfig() == ModelConfig(vm_features=frozenset())

    def test_flag_off_digests_match_recorded_corpus(self):
        """The current engine, features off, reproduces the recorded
        seed digests bit-for-bit."""
        recorded = json.loads(CORPUS.read_text())
        tests = _tests_by_name()
        for name in _SAMPLES:
            test = tests[name]
            assert not test.vm_features
            sc_cfg, rm_cfg = litmus_configs(test)
            observe = sorted(test.program.initial_memory)
            sc = cached_explore(test.program, sc_cfg, observe_locs=observe)
            rm = cached_explore(test.program, rm_cfg, observe_locs=observe)
            assert behavior_digest(sc) == recorded[name]["sc"], name
            assert behavior_digest(rm) == recorded[name]["rm"], name

    def test_vm_corpus_is_digested_under_its_features(self):
        """Feature-carrying catalog entries digest under their features:
        the amalgamated-BBM test's relaxed digest differs from the
        honest protocol's exactly because the stale outcome exists."""
        recorded = json.loads(CORPUS.read_text())
        assert (
            recorded["VM-bbm[honest]"]["rm"]
            != recorded["VM-bbm[amalgamated]"]["rm"]
        )
        assert (
            recorded["VM-bbm[honest]"]["sc"]
            == recorded["VM-bbm[amalgamated]"]["sc"]
        )


class TestFlagOnNeutrality:
    def _feature_free_test(self):
        return _tests_by_name()["MP"]

    def test_all_features_are_noop_on_mmu_free_programs(self, monkeypatch):
        """The ``vm_neutral`` oracle agrees, and REPRO_VM_FEATURES=all
        leaves the behavior set equal to the flag-off one."""
        test = self._feature_free_test()
        assert check_program(test.program, ("vm_neutral",)) == []
        observe = sorted(test.program.initial_memory)
        baseline = explore(
            test.program, ModelConfig(relaxed=True), observe_locs=observe
        )
        monkeypatch.setenv("REPRO_VM_FEATURES", "all")
        featured = explore(
            test.program, ModelConfig(relaxed=True), observe_locs=observe
        )
        assert featured.behaviors == baseline.behaviors
        assert behavior_digest(featured) == behavior_digest(baseline)

    def test_env_features_resolve_into_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_FEATURES", "bbm,had")
        cfg = resolve_vm_features(ModelConfig())
        assert cfg.vm_features == frozenset({"bbm", "had"})
        # Explicit settings are immune to the environment.
        explicit = ModelConfig(vm_features=frozenset({"stage2"}))
        assert resolve_vm_features(explicit) is explicit

    def test_parse_rejects_unknown_and_expands_all(self):
        from repro.errors import ProgramError

        assert parse_vm_features("all") == frozenset(VM_FEATURES)
        assert parse_vm_features("") == frozenset()
        with pytest.raises(ProgramError):
            parse_vm_features("bbm,telepathy")


#: (mutant, expected oracle, fixed-seed budget) for the VM families.
VM_MUTANT_MATRIX = [
    ("bbm-skipped", "vm", 20),
    ("stale-intermediate-walk", "vm", 20),
    ("lost-dirty-bit", "vm", 20),
]


@pytest.mark.parametrize(
    "mutant,oracle,budget",
    VM_MUTANT_MATRIX,
    ids=[m[0] for m in VM_MUTANT_MATRIX],
)
class TestVMMutantsAreKilled:
    def test_mutant_is_detected_and_shrunk(self, mutant, oracle, budget):
        with mutants.seeded(mutant):
            report = run_fuzz(FuzzConfig(
                seed=0, budget=budget, profiles=("vm",), max_findings=2,
            ))
            assert report.findings, (
                f"{mutant} survived {budget} vm-profile programs"
            )
            finding = report.findings[0]
            assert finding.oracle == oracle
            assert finding.shrunk is not None
            assert finding.shrunk.size() <= 8, (
                f"{mutant}: shrunk counterexample has "
                f"{finding.shrunk.size()} ops"
            )
        assert not mutants.active()

    def test_same_seeds_are_clean_without_the_mutant(
        self, mutant, oracle, budget
    ):
        report = run_fuzz(FuzzConfig(
            seed=0, budget=budget, profiles=("vm",), max_findings=2,
        ))
        assert report.ok, "\n".join(f.describe() for f in report.findings)


class TestCacheKeyFolding:
    def _program(self):
        return _tests_by_name()["MP"].program

    def test_programmatic_features_change_keys(self):
        program = self._program()
        plain = exploration_key(program, ModelConfig(), None, False, True)
        featured = exploration_key(
            program, ModelConfig(vm_features=frozenset({"bbm"})),
            None, False, True,
        )
        assert plain != featured
        # Same feature set -> same key (determinism of the fold).
        assert featured == exploration_key(
            program, ModelConfig(vm_features=frozenset({"bbm"})),
            None, False, True,
        )

    def test_env_features_change_keys(self, monkeypatch):
        program = self._program()
        plain = exploration_key(program, ModelConfig(), None, False, True)
        monkeypatch.setenv("REPRO_VM_FEATURES", "walk-cache")
        env_key = exploration_key(program, ModelConfig(), None, False, True)
        assert env_key != plain
        # The env fold and the programmatic fold agree.
        monkeypatch.delenv("REPRO_VM_FEATURES")
        assert env_key == exploration_key(
            program, ModelConfig(vm_features=frozenset({"walk-cache"})),
            None, False, True,
        )

    def test_vm_mutants_change_keys(self):
        program = self._program()
        honest = exploration_key(program, ModelConfig(), None, False, True)
        with mutants.seeded("bbm-skipped"):
            mutated = exploration_key(program, ModelConfig(), None, False, True)
        assert honest != mutated
        assert honest == exploration_key(program, ModelConfig(), None, False, True)
