"""Tests for the random program generator and sampled exploration."""

import pytest

from repro.litmus.generate import GeneratorConfig, random_corpus, random_program
from repro.memory import explore_promising, explore_sc, explore_tso
from repro.memory.sampling import sample_behaviors
from repro.memory.semantics import ModelConfig, PROMISING_ARM, SC, TSO


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = random_program(42)
        b = random_program(42)
        assert a.threads == b.threads
        assert random_program(43).threads != a.threads

    def test_corpus_size_and_names(self):
        corpus = random_corpus(5, start_seed=10)
        assert len(corpus) == 5
        assert corpus[0].name == "random[10]"

    def test_config_respected(self):
        cfg = GeneratorConfig(n_threads=3, min_ops=1, max_ops=2,
                              n_locations=1)
        program = random_program(7, cfg)
        assert len(program.threads) == 3
        for thread in program.threads:
            assert len(thread.instrs) <= 2

    @pytest.mark.parametrize("seed", range(0, 30))
    def test_fuzz_sc_subset_of_rm(self, seed):
        """The framework's soundness invariant on random programs."""
        program = random_program(seed)
        sc = explore_sc(program)
        rm = explore_promising(program)
        assert sc.complete and rm.complete
        assert sc.behaviors <= rm.behaviors, program.name


class TestSampling:
    def test_sampled_subset_of_exhaustive(self):
        program = random_program(3)
        exhaustive = explore_promising(program)
        sampled = sample_behaviors(program, PROMISING_ARM, runs=50, seed=1)
        assert sampled.behaviors <= exhaustive.behaviors
        assert not sampled.complete  # sampling never verifies

    def test_sampling_finds_relaxed_bug(self):
        """A random walk finds Example 3's stale context quickly."""
        from repro.litmus import example3_vcpu
        from repro.memory.behaviors import admits

        program = example3_vcpu(correct=False)
        sampled = sample_behaviors(
            program, PROMISING_ARM, runs=300, seed=7
        )
        assert admits(sampled, t1_restored=0)

    def test_sc_sampling_has_no_promises(self):
        program = random_program(5)
        sampled = sample_behaviors(program, SC, runs=30, seed=2)
        exhaustive_sc = explore_sc(program)
        assert sampled.behaviors <= exhaustive_sc.behaviors

    def test_tso_walks_drain_their_store_buffers(self):
        """Under TSO a walk ends only once every store buffer has
        flushed, so the walks must take the flush steps too."""
        from repro.litmus import full_corpus
        from repro.memory.behaviors import admits

        (sb,) = [t for t in full_corpus() if t.name == "SB"]
        exhaustive = explore_tso(sb.program)
        sampled = sample_behaviors(sb.program, TSO, runs=200, seed=1)
        assert sampled.behaviors
        assert sampled.behaviors <= exhaustive.behaviors
        assert admits(sampled, t0_r0=0, t1_r1=0)   # store buffering

    def test_model_knob_retargets_sampling(self, monkeypatch):
        """``REPRO_MODEL`` re-targets a relaxed walk, as it does every
        exhaustive exploration: SB's relaxed outcome, which Arm walks
        find, is gone under ``sc``."""
        from repro.litmus import full_corpus
        from repro.memory.behaviors import admits

        (sb,) = [t for t in full_corpus() if t.name == "SB"]
        arm = sample_behaviors(sb.program, PROMISING_ARM, runs=100, seed=1)
        assert admits(arm, t0_r0=0, t1_r1=0)
        monkeypatch.setenv("REPRO_MODEL", "sc")
        sampled = sample_behaviors(sb.program, PROMISING_ARM, runs=100,
                                   seed=1)
        assert sampled.behaviors
        assert sampled.behaviors <= explore_sc(sb.program).behaviors

    def test_deterministic_given_seed(self):
        program = random_program(9)
        a = sample_behaviors(program, PROMISING_ARM, runs=20, seed=5)
        b = sample_behaviors(program, PROMISING_ARM, runs=20, seed=5)
        assert a.behaviors == b.behaviors
