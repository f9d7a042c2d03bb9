"""The optimization ledger: one row per optimization the engine keeps.

Each row names the ablation that turns the optimization off, the one
conformance oracle (:data:`repro.conformance.oracles.ORACLES`) that
compares it with its reference path, and the seeded mutants
(:data:`repro.memory.mutants.KNOWN_MUTANTS`) that oracle kills in
``tests/test_mutation_killing.py``.  The ablation is a
:data:`repro.config.KNOBS` row, or a key of :data:`REFERENCES` for the
knob-less optimizations, which are off exactly when the reference path
runs instead.  A row without an oracle or without a mutant says what
checks it instead in its ``note``.

``tests/test_ledger.py`` checks every name here against the registries
it points into, so deleting an optimization, an oracle, a knob or a
mutant without its row fails tier-1.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

__all__ = ["OPTIMIZATIONS", "REFERENCE_DFS", "REFERENCES", "Optimization"]

#: The unreduced reference search the knob-less reductions are compared
#: with: every thread scheduled, nothing pruned, no memo.
REFERENCE_DFS = "reference DFS"

#: The knob-less ablations: each name maps to the dotted path of the
#: reference that runs in the optimization's place.
REFERENCES: Dict[str, str] = {
    REFERENCE_DFS: "repro.conformance.oracles._reference_explore",
    "per-probe walk": "repro.mmu.walker.walk_memory",
}


class Optimization(NamedTuple):
    """One ledger row."""

    name: str
    #: A :data:`repro.config.KNOBS` name or a :data:`REFERENCES` key.
    ablation: str
    #: An :data:`~repro.conformance.oracles.ORACLES` name, or None.
    oracle: Optional[str]
    #: Seeded mutants the oracle kills; empty when none exists yet.
    mutants: Tuple[str, ...] = ()
    #: What checks the optimization where the oracle or mutant is missing.
    note: str = ""


OPTIMIZATIONS: Tuple[Optimization, ...] = (
    Optimization(
        "partial-order reduction (local steps)", "por", "por",
        ("ample-ignores-panic",),
    ),
    Optimization(
        "doomed-state pruning", REFERENCE_DFS, "reduction",
        ("doomed-skips-current-store",),
    ),
    Optimization(
        "dead-promise pruning", REFERENCE_DFS, "reduction",
        ("dead-promise-counts-vro",),
    ),
    Optimization(
        "await-loop pruning", REFERENCE_DFS, "reduction",
        ("await-loop-carried",),
    ),
    Optimization(
        "thread symmetry", REFERENCE_DFS, "reduction",
        ("symmetry-skips-orbit", "symmetry-keeps-panic-cpu"),
    ),
    Optimization(
        "own-store promise gate", REFERENCE_DFS, "reduction",
        ("promise-gate-any-store",),
    ),
    Optimization(
        "certification memo", "cert_memo", "memo", (),
        "no seeded mutant yet; the oracle also compares state counts",
    ),
    Optimization(
        "monitor fusion", "fuse", "fuse", (),
        "no seeded mutant yet",
    ),
    Optimization(
        "exploration memo", "explore_memo", None, (),
        "no oracle or mutant; tests/test_explore_cache.py pins its key "
        "sensitivity and recomputation with the memo off",
    ),
    Optimization(
        "exploration disk cache", "explore_cache", None, (),
        "no oracle or mutant; tests/test_explore_cache.py checks disk "
        "round trips and corrupt entries",
    ),
    Optimization(
        "state interning", "intern", None, (),
        "no oracle or mutant; tests/test_parallel_exploration.py "
        "compares interning on and off",
    ),
    Optimization(
        "Transactional-Page-Table tree walk (walk_mapped)",
        "per-probe walk", None, (),
        "no oracle or mutant; tests/test_transactional_differential.py "
        "compares it with walk_memory on every probe",
    ),
)
