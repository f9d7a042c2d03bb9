"""Verdict matrix: the page-table wDRF conditions under VM features.

The Transactional-Page-Table and Sequential-TLB-Invalidation conditions
were proved sufficient against the *base* virtual-memory model.  The
``REPRO_VM_FEATURES`` behavior families (break-before-make amalgamation,
partial walk caching, hardware A/D updates, two-stage translation) each
weaken the hardware beyond that model, so the natural question is which
condition verdicts survive which feature combination.

This module answers it mechanically: for every subset of
:data:`repro.memory.semantics.VM_FEATURES` it re-runs both structural
checkers on a fixed scenario suite (the ``vm_corpus`` update protocols)
and then *explores* each scenario on the relaxed model under that
feature set, recording whether the stale-translation postcondition is
observable.  A row where both conditions hold structurally while the
stale outcome is observable is a sufficiency gap — the condition's
discipline no longer protects against that feature family (the
break-before-make protocol, per-stage invalidation scope, or non-leaf
invalidations are additionally required).

The matrix is persisted as ``tests/corpus/vm_features_verdicts.json``
(regenerate with ``python -m repro.vrm.vm_matrix <path>``) and pinned by
the corpus regression suite, so any semantics change that silently moves
the sufficiency boundary fails a test instead of a reader.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from typing import Dict, FrozenSet, List, Tuple

from repro.litmus.catalog import (
    LitmusTest,
    vm_bbm,
    vm_stage2_tlbi,
    vm_walk_cache,
)
from repro.litmus.runner import _admits
from repro.memory.cache import cached_explore
from repro.memory.semantics import PROMISING_ARM, VM_FEATURES
from repro.vrm.tlb_sequential import check_sequential_tlb_invalidation
from repro.vrm.transactional import check_program_transactional

#: Matrix schema version (bump when the row shape changes).
SCHEMA = 1


def _scenarios() -> Tuple[Tuple[str, LitmusTest], ...]:
    """Scenario name -> litmus test (built lazily; programs are cheap)."""
    return (
        ("bbm-honest", vm_bbm(honest=True)),
        ("bbm-amalgamated", vm_bbm(honest=False)),
        ("walk-cache-leaf-tlbi", vm_walk_cache(leaf_only=True)),
        ("stage2-stage1-tlbi", vm_stage2_tlbi(stage=1)),
    )


def all_feature_combos() -> List[FrozenSet[str]]:
    """Every subset of the VM feature families, smallest first."""
    combos: List[FrozenSet[str]] = []
    for size in range(len(VM_FEATURES) + 1):
        for subset in itertools.combinations(VM_FEATURES, size):
            combos.append(frozenset(subset))
    return combos


def _combo_key(combo: FrozenSet[str]) -> str:
    return ",".join(sorted(combo))


def build_matrix(cache: bool = True) -> Dict[str, object]:
    """Compute the full verdict matrix (JSON-ready)."""
    rows: List[Dict[str, object]] = []
    for combo in all_feature_combos():
        cfg = dataclasses.replace(PROMISING_ARM, vm_features=combo)
        for name, test in _scenarios():
            transactional = check_program_transactional(test.program)
            sequential = check_sequential_tlb_invalidation(test.program)
            observe = sorted(loc for loc, _ in test.memory_condition)
            explored = cached_explore(
                test.program, cfg, observe_locs=observe, cache=cache
            )
            rows.append({
                "features": _combo_key(combo),
                "scenario": name,
                "transactional_holds": transactional.holds,
                "tlb_sequential_holds": sequential.holds,
                "stale_observed": _admits(test, explored),
                "complete": explored.complete,
            })
    return {
        "schema": SCHEMA,
        "conditions": [
            "Transactional-Page-Table",
            "Sequential-TLB-Invalidation",
        ],
        "scenarios": [name for name, _ in _scenarios()],
        "rows": rows,
    }


def main(argv: List[str]) -> int:
    """Write the matrix to the path in ``argv`` (or stdout)."""
    matrix = build_matrix()
    text = json.dumps(matrix, indent=2, sort_keys=True) + "\n"
    if argv:
        with open(argv[0], "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(matrix['rows'])} verdict rows to {argv[0]}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
