"""Differential conformance harness: the paper's relations as fuzzing
oracles.

The verification stack rests on relations between engines that are
proved on paper but merely *implemented* here: SC behaviors embed into
Promising Arm behaviors, wDRF programs behave identically on both, the
operational executor matches the axiomatic model, and every engine
optimization (POR, certification memoization, pass fusion, the SAT
backend, the process pool, the VM feature gates) is
behavior-preserving.  This package turns each relation into an entry of
one oracle registry (:mod:`~repro.conformance.oracles`, the
repository's only differential-check mechanism), drives
coverage-guided random programs through all of them
(:mod:`~repro.conformance.engine`), shrinks any
disagreement to a minimal replayable counterexample
(:mod:`~repro.conformance.shrink`, :mod:`~repro.conformance.corpus`),
and pins the litmus catalog's behavior sets against drift
(:mod:`~repro.conformance.digests`).  The optimization ledger
(:mod:`~repro.conformance.ledger`) lists, per optimization, its
ablation, its oracle and the seeded mutants that oracle kills.

The mutation-killing suite (``tests/test_mutation_killing.py``) closes
the loop: seeded engine bugs (:mod:`repro.memory.mutants`) must each be
detected by these oracles within a bounded budget, which is the
evidence that "the fuzzer found nothing" means something.
"""

from repro.conformance.genome import (
    PROFILES,
    Genome,
    OpSpec,
    build,
    derive_rng,
    mutate,
    random_genome,
    valid,
)
from repro.conformance.ledger import (
    OPTIMIZATIONS,
    REFERENCES,
    Optimization,
)
from repro.conformance.oracles import (
    ORACLES,
    Disagreement,
    check_genome,
    check_program,
    oracles_for,
)
from repro.conformance.shrink import ShrinkResult, oracle_predicate, shrink
from repro.conformance.coverage import CoverageMap
from repro.conformance.corpus import (
    engine_fingerprint,
    iter_corpus,
    load_entry,
    replay_entry,
    save_finding,
)
from repro.conformance.engine import (
    FuzzConfig,
    FuzzFinding,
    FuzzReport,
    fuzz_parallel,
    run_fuzz,
)
from repro.conformance.digests import (
    behavior_digest,
    litmus_digests,
    write_digests,
)

__all__ = [
    "PROFILES",
    "Genome",
    "OpSpec",
    "build",
    "derive_rng",
    "mutate",
    "random_genome",
    "valid",
    "OPTIMIZATIONS",
    "Optimization",
    "REFERENCES",
    "ORACLES",
    "Disagreement",
    "check_genome",
    "check_program",
    "oracles_for",
    "ShrinkResult",
    "oracle_predicate",
    "shrink",
    "CoverageMap",
    "engine_fingerprint",
    "iter_corpus",
    "load_entry",
    "replay_entry",
    "save_finding",
    "FuzzConfig",
    "FuzzFinding",
    "FuzzReport",
    "fuzz_parallel",
    "run_fuzz",
    "behavior_digest",
    "litmus_digests",
    "write_digests",
]
