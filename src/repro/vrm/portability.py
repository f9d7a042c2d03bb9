"""Model-portfolio portability certification: SC ⊆ TSO ⊆ Arm.

The paper verifies SeKVM against the Promising Arm model; the model
portfolio (see ``docs/PORTABILITY.md``) adds a TSO operational backend
(:mod:`repro.memory.tso`) and sequential consistency as explicit
targets.  The portfolio is only trustworthy if the models relate the
way the architectures do — every SC behavior must be a TSO behavior
and every TSO behavior an Arm behavior, for *arbitrary* programs:

* SC ⊆ TSO because an SC step is a TSO step whose store drains
  immediately (store, flush, repeat reproduces any interleaving);
* TSO ⊆ Arm because a drained-late store is an Arm store read stale by
  other threads, and store forwarding is exactly what Arm coherence
  forces a thread to see of its own writes.

Two seeded mutants break one inclusion each and keep the oracle
honest: ``lost-flush`` makes a buffered write vanish (SC ⊄ TSO — the
behavior where the store lands becomes unreachable) and
``read-skips-own-buffer`` lets a thread read older than its own
latest store (TSO ⊄ Arm — no Arm coherence order admits that).

Two granularities:

* :func:`check_portability` — the behavior-set containment oracle on
  one program, used by the ``portability`` conformance oracle
  (:mod:`repro.conformance.oracles`) on fuzzed and catalog programs.
* :func:`build_matrix` — re-verifies the whole litmus catalog (all
  three verdict columns plus both containment directions per test) and
  the SeKVM KCore corpus (the wDRF verdict under each ``REPRO_MODEL``,
  which must be anti-monotone in model strength: verified on Arm ⇒
  verified on TSO ⇒ verified on SC).  The matrix is persisted as
  ``tests/corpus/portability_verdicts.json`` (regenerate with
  ``python -m repro portability --jobs 1 -o <path>``) and pinned by the
  corpus regression suite.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro import config
from repro.ir.program import Program
from repro.litmus.catalog import full_corpus
from repro.litmus.runner import _admits, litmus_configs, tso_config
from repro.memory.cache import cached_explore
from repro.memory.datatypes import ExplorationResult
from repro.memory.semantics import ModelConfig

__all__ = [
    "SCHEMA",
    "build_matrix",
    "check_portability",
    "render_matrix",
]

#: Matrix schema version (bump when the row shape changes).
SCHEMA = 1

#: Portfolio order, weakest guarantees last.
MODEL_ORDER = ("sc", "tso", "arm")


def portfolio_configs(arm_cfg: ModelConfig) -> Dict[str, ModelConfig]:
    """The three portfolio configurations derived from an Arm config.

    Everything but the architecture selection (promise budget, VM
    features, exploration limits) is inherited, so the three
    explorations differ in exactly the model.
    """
    return {
        "sc": dataclasses.replace(arm_cfg, relaxed=False, tso=False),
        "tso": dataclasses.replace(arm_cfg, relaxed=False, tso=True),
        "arm": dataclasses.replace(arm_cfg, relaxed=True, tso=False),
    }


def check_portability(
    program: Program,
    arm_cfg: Optional[ModelConfig] = None,
    observe_locs: Optional[Sequence[int]] = None,
    cache: bool = True,
) -> List[str]:
    """Certify SC ⊆ TSO ⊆ Arm on *program*; [] means both inclusions hold.

    Returns one message per violated inclusion.  An inclusion is only
    judged when the weaker (upper) model's exploration completed — a
    budget-truncated upper set proves nothing about containment.
    """
    if arm_cfg is None:
        arm_cfg = ModelConfig(relaxed=True)
    if observe_locs is None:
        observe_locs = sorted(program.initial_memory)
    results: Dict[str, ExplorationResult] = {
        name: cached_explore(program, cfg, observe_locs=observe_locs,
                             cache=cache)
        for name, cfg in portfolio_configs(arm_cfg).items()
    }
    problems: List[str] = []
    for lower, upper in (("sc", "tso"), ("tso", "arm")):
        if not results[upper].complete:
            continue
        missing = results[lower].behaviors - results[upper].behaviors
        if missing:
            shown = ", ".join(sorted(b.pretty() for b in missing)[:3])
            problems.append(
                f"{lower.upper()} ⊄ {upper.upper()}: {len(missing)} "
                f"{lower.upper()} behavior(s) unreachable on "
                f"{upper.upper()}, e.g. {shown}"
            )
    return problems


def _litmus_rows(cache: bool) -> List[Dict[str, object]]:
    """One row per catalog test: three verdicts + both inclusions."""
    rows: List[Dict[str, object]] = []
    for test in full_corpus():
        sc_cfg, rm_cfg = litmus_configs(test)
        configs = {"sc": sc_cfg, "tso": tso_config(test), "arm": rm_cfg}
        observe = sorted(test.program.initial_memory)
        results = {
            name: cached_explore(test.program, cfg, observe_locs=observe,
                                 cache=cache)
            for name, cfg in configs.items()
        }
        rows.append({
            "name": test.name,
            "observed": {
                name: _admits(test, results[name]) for name in MODEL_ORDER
            },
            "complete": all(r.complete for r in results.values()),
            "sc_subset_tso": not (
                results["sc"].behaviors - results["tso"].behaviors
            ),
            "tso_subset_arm": not (
                results["tso"].behaviors - results["arm"].behaviors
            ),
        })
    return rows


def _sekvm_rows(cache: bool) -> List[Dict[str, object]]:
    """One row per verified KCore primitive: wDRF verdict per model.

    ``REPRO_MODEL`` re-targets the verifier's relaxed explorations, so
    each column is the verdict a user selecting that architecture would
    get.  Verification must be anti-monotone in model strength
    (behaviors(SC) ⊆ behaviors(TSO) ⊆ behaviors(Arm), and a violation
    is witnessed by a behavior): expressed in the shared row shape,
    ``sc_subset_tso`` means no TSO-verified case fails on SC and
    ``tso_subset_arm`` means no Arm-verified case fails on TSO.
    """
    from repro.sekvm.ir_programs import kcore_verified_cases
    from repro.vrm.verifier import verify_wdrf

    rows: List[Dict[str, object]] = []
    for case in kcore_verified_cases():
        verified: Dict[str, bool] = {}
        for model in MODEL_ORDER:
            with config.override(model=model,
                                 explore_cache=None if cache else False):
                verified[model] = verify_wdrf(case.spec).all_verified
        rows.append({
            "name": case.name,
            "verified": verified,
            "expected": case.should_verify,
            "sc_subset_tso": (not verified["tso"]) or verified["sc"],
            "tso_subset_arm": (not verified["arm"]) or verified["tso"],
        })
    return rows


def build_matrix(cache: bool = True) -> Dict[str, object]:
    """Compute the full portability matrix (JSON-ready)."""
    return {
        "schema": SCHEMA,
        "models": list(MODEL_ORDER),
        "litmus": _litmus_rows(cache),
        "sekvm": _sekvm_rows(cache),
    }


def render_matrix(matrix: Dict[str, object]) -> str:
    """Human-readable portability table."""
    lines = [
        "litmus test                              sc    tso   arm   "
        "sc⊆tso tso⊆arm",
    ]
    for row in matrix["litmus"]:
        obs = row["observed"]
        lines.append(
            f"{row['name']:<40} "
            + " ".join(f"{'yes' if obs[m] else 'no':<5}" for m in MODEL_ORDER)
            + f" {'ok' if row['sc_subset_tso'] else 'VIOL':<6}"
            + f" {'ok' if row['tso_subset_arm'] else 'VIOL'}"
        )
    lines.append("")
    lines.append(
        "sekvm primitive                          sc    tso   arm   "
        "sc⊆tso tso⊆arm"
    )
    for row in matrix["sekvm"]:
        ver = row["verified"]
        lines.append(
            f"{row['name']:<40} "
            + " ".join(f"{'ok' if ver[m] else 'FAIL':<5}" for m in MODEL_ORDER)
            + f" {'ok' if row['sc_subset_tso'] else 'VIOL':<6}"
            + f" {'ok' if row['tso_subset_arm'] else 'VIOL'}"
        )
    certified = all(
        row["sc_subset_tso"] and row["tso_subset_arm"]
        for section in ("litmus", "sekvm")
        for row in matrix[section]
    )
    lines.append("")
    lines.append(
        "portfolio containment SC ⊆ TSO ⊆ Arm: "
        + ("CERTIFIED" if certified else "VIOLATED")
    )
    return "\n".join(lines)

