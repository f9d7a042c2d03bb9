"""Executable conformance oracles: the paper's relations as assertions.

Each oracle takes a :class:`~repro.conformance.genome.Genome`, runs the
engine some number of ways, and returns :class:`Disagreement` records
for every relation that failed to hold.  The oracles are chosen so that
each is *sound for its profile* — it can only fire on a genuine engine
bug, never on an expected relaxed-memory effect:

``containment``
    SC ⊆ RM on the same program: the SC model's scheduler/read choices
    are a subset of the relaxed model's, so every SC behavior must be
    reachable relaxed.  Holds for arbitrary programs (not under the
    push/pull models, whose barrier-fulfillment panics exist only on
    the relaxed side — hence skipped for ``sync`` genomes).
``portability``
    The model-portfolio refinement of ``containment``: SC ⊆ TSO and
    TSO ⊆ Arm on the same program (:func:`repro.vrm.portability.
    check_portability`).  Sound for the same reason containment is,
    with the TSO model as the middle rung; kills the seeded
    ``lost-flush`` and ``read-skips-own-buffer`` store-buffer mutants.
``equivalence``
    RM = SC on ``fenced`` genomes: a full barrier after every access
    makes the program data-race-free by construction, so by the
    theorem the relaxed behaviors must collapse onto the SC set.  This
    is the executable form of the paper's guarantee on *random*
    programs rather than the curated corpus.
``axiomatic``
    Operational = axiomatic outcome sets on programs the simplified
    Armv8 axiomatic model accepts (straight-line, non-RMW).
``por`` / ``memo`` / ``jobs``
    Engine configurations are behavior-preserving: partial-order
    reduction on/off, certification memoization on/off (which must
    also explore the same number of states), and process-pool vs.
    serial evaluation must each produce bit-identical behavior sets.
``reduction``
    The explorer's state-space reductions — doomed-state and
    dead-promise pruning, await-loop pruning, the own-store promise
    gate, partial-order reduction, thread symmetry and the
    certification memo — keep the relaxed behavior set: a minimal
    reference DFS over the bare step relation (every thread scheduled,
    nothing pruned, no memo) must reach exactly the same behaviors.
    Given a wDRF spec, the spec's push/pull configuration (the
    DRF-Kernel pass's model) is compared too.
``vm_neutral``
    The relaxed-virtual-memory feature families only change programs
    that use the MMU: an MMU-free program has the same behavior set
    with every feature on and with them stripped.
``fuse``
    :func:`repro.vrm.verifier.verify_wdrf` with fused streaming passes
    produces a report bit-identical to the legacy per-condition
    layout.
``monitor``
    The streaming :class:`~repro.vrm.drf_kernel.DRFKernelMonitor`'s
    verdict agrees with ground truth recomputed from a monitor-free
    exhaustive exploration's panic set — the oracle that catches a
    checker which silently swallows violations.
``backend``
    The SAT/BMC backend (:mod:`repro.smt`) enumerates exactly the
    exploration engine's behavior sets on both models, for every
    program inside the encodable fragment, and — given a wDRF spec —
    reaches the same condition verdicts on every encodable pass: the
    relation that keeps the second verification backend honest (and
    kills the seeded ``bmc-*`` encoder mutants).
``vm``
    Property-based checks on ``vm`` genomes (the fixed break-before-make
    skeleton run under the ``bbm``/``walk-cache``/``had`` features):
    after the updater's honest remap handshake, the accessor's checked
    load reaches the *new* frame or faults inside the remap window —
    never the old frame — and every fault-free behavior leaves a
    dirty leaf entry behind the probe store.  Sound for arbitrary
    accessor fragments because the skeleton's protocol is honest by
    construction; fires on the seeded ``bbm-skipped``,
    ``stale-intermediate-walk`` and ``lost-dirty-bit`` mutants.

:data:`ORACLES` is the one registry of these relations: each name maps
to its check function and the kind of witness that explains a failure
(:data:`MODEL_DIFF`, :data:`CONFIG` or :data:`VM`, read by
:mod:`repro.obs.render`).  It is the only differential-check mechanism
in the repository: every optimization with an oracle is compared with
its reference path here and nowhere else.  The ledger
(:data:`repro.conformance.ledger.OPTIMIZATIONS`) names each
optimization's oracle, and what checks the few that have none.
:func:`check_program` runs chosen entries
on any program (optionally with a full :class:`~repro.vrm.verifier.
WDRFSpec`); :func:`check_genome` selects the sound subset for a
genome's profile (plus the expensive ``fuse``/``jobs`` oracles when
asked) and is the single entry point used by the fuzzing engine, the
shrinker, and the corpus replayer.

A check whose searches a budget cut (``containment``, ``equivalence``,
``axiomatic``, ``por``, ``reduction``, ``vm_neutral``, and ``monitor``
when the cut search found no panic) compared nothing: it returns an
*inconclusive* :class:`Disagreement` naming the search and the budget,
which the fuzzer counts apart and never shrinks or saves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import config
from repro.conformance.genome import (
    VM_NEW_VAL,
    VM_PROFILE_FEATURES,
    VM_T_NEW,
    VM_T_OLD,
    VM_VPN_B,
    Genome,
    build,
    shared_locations,
)
from repro.ir.instructions import TLBInvalidate, VLoad, VStore
from repro.ir.program import Program
from repro.memory.axiomatic import axiomatic_outcomes, eligible
from repro.memory.cache import cached_explore
from repro.memory.datatypes import ExplorationResult
from repro.memory.exploration import behavior_of, explore
from repro.memory.pushpull import pushpull_config
from repro.memory.semantics import (
    PROMISING_ARM,
    PTE_DIRTY,
    SC,
    VM_FEATURES,
    ModelConfig,
    ProgramCache,
    execute_instruction,
    promise_steps,
    resolve_model,
    resolve_vm_features,
    tso_flush_steps,
)
from repro.memory.state import initial_state
from repro.smt.backend import bmc_explore, bmc_supported
from repro.smt.encode import Unsupported
from repro.parallel import parallel_map
from repro.vrm.conditions import ConditionResult, PassRequest, WDRFReport
from repro.vrm.drf_kernel import check_drf_kernel, plan_drf_kernel
from repro.vrm.verifier import (
    WDRFSpec,
    _condition_plan,
    plan_passes,
    run_condition_group,
    verify_wdrf,
)

__all__ = [
    "CONFIG",
    "MODEL_DIFF",
    "ORACLES",
    "VM",
    "Disagreement",
    "Oracle",
    "Subject",
    "check_genome",
    "check_program",
    "oracles_for",
    "vm_neutral_program",
]

#: Witness kinds: how :mod:`repro.obs.render` explains a disagreement.
#: A cross-model (or cross-backend) behavior diff is explained by a
#: relaxed execution reaching a behavior SC cannot.
MODEL_DIFF = "model-diff"
#: An engine-configuration identity (optimization on vs. off): the
#: witness program is interesting as a whole, so any relaxed execution
#: (or, for ``sync`` genomes, an ownership panic) is shown.
CONFIG = "config"
#: A property of the relaxed-virtual-memory feature families: the
#: explanation runs the featured configuration so the walk-level
#: mechanism is visible in the rendered steps.
VM = "vm"

#: The sound, always-on oracle subset per generation profile.
#: ``portability`` runs after the single-model oracles so a mutant that
#: breaks the default model keeps its historical attribution; only the
#: TSO-specific mutants fall through to it.
_PROFILE_ORACLES = {
    "plain": ("containment", "axiomatic", "backend", "por", "memo",
              "reduction", "portability"),
    "fenced": ("containment", "equivalence", "backend", "por", "memo",
               "portability"),
    "mmu": ("containment", "por", "memo", "portability"),
    "sync": ("monitor",),
    "vm": ("vm",),
}

#: Expensive oracles added when the caller opts into a heavy check.
_HEAVY_ORACLES = {
    "plain": ("jobs",),
    "fenced": ("jobs",),
    "mmu": ("jobs",),
    "sync": ("fuse",),
    "vm": ("jobs",),
}


@dataclass(frozen=True)
class Disagreement:
    """One violated conformance relation, with a human-readable diff.

    With ``inconclusive`` set it is the third outcome instead: a budget
    cut one of the searches the oracle compares, so the check compared
    nothing and neither agrees nor disagrees; *detail* names the search
    and the budget that cut it.
    """

    oracle: str
    detail: str
    inconclusive: bool = False

    def describe(self) -> str:
        """One line naming the oracle and its verdict."""
        verdict = "inconclusive: " if self.inconclusive else ""
        return f"[{self.oracle}] {verdict}{self.detail}"


def _budget_cut(
    oracle: str, search: str, result: ExplorationResult, cfg: ModelConfig
) -> Disagreement:
    """The inconclusive outcome of *oracle* when *search* (which ran
    under *cfg*) stopped short of a complete exploration."""
    if result.states_explored >= cfg.max_states:
        budget = f"max_states={cfg.max_states}"
    elif result.stats is not None and result.stats.cert_budget_hits:
        budget = f"cert_max_states={cfg.cert_max_states}"
    else:
        budget = f"max_memory={cfg.max_memory}"
    return Disagreement(
        oracle=oracle,
        detail=f"{search} was cut by {budget} after "
        f"{result.states_explored} states, so nothing was compared",
        inconclusive=True,
    )


def _first_cut(
    oracle: str, searches: Sequence[Tuple[str, ExplorationResult, ModelConfig]]
) -> Optional[Disagreement]:
    """The inconclusive outcome (:func:`_budget_cut`) for the first of
    *searches*, ``(name, result, cfg)`` triples, that a budget cut, or
    None when every search is complete."""
    for search, result, cfg in searches:
        if not result.complete:
            return _budget_cut(oracle, search, result, cfg)
    return None


@dataclass(frozen=True)
class Subject:
    """One program under check: the SC and relaxed configurations the
    oracles explore it under, and the wDRF spec (if any) whose passes
    the spec-aware oracles also compare."""

    program: Program
    spec: Optional[WDRFSpec] = None
    sc: ModelConfig = SC
    rm: ModelConfig = PROMISING_ARM

    @property
    def observe(self) -> List[int]:
        """Every location with a declared initial value."""
        return sorted(self.program.initial_memory)

    def models(self) -> Tuple[Tuple[str, ModelConfig], ...]:
        """The ``(label, cfg)`` pairs of the two models."""
        return (("SC", self.sc), ("RM", self.rm))

    def wdrf_spec(self) -> WDRFSpec:
        """The given spec, or a bare one for the program alone."""
        return self.spec or WDRFSpec(program=self.program)


@dataclass(frozen=True)
class Oracle:
    """One registry entry: the check and its witness kind."""

    check: Callable[[Subject], List[Disagreement]]
    witness: str


def oracles_for(profile: str, heavy: bool = False) -> Tuple[str, ...]:
    """The oracle names :func:`check_genome` runs for *profile*."""
    names = _PROFILE_ORACLES[profile]
    if heavy:
        names = names + _HEAVY_ORACLES[profile]
    return names


def vm_neutral_program(program: Program) -> bool:
    """True when no thread of *program* uses the MMU (no virtual access
    and no TLBI) — the programs whose behavior the VM features must not
    change."""
    for thread in program.threads:
        for instr in thread.instrs:
            if isinstance(instr, (VLoad, VStore, TLBInvalidate)):
                return False
    return True


def _behaviors_diff(
    label_a: str, a: ExplorationResult, label_b: str, b: ExplorationResult
) -> Optional[str]:
    """A readable description of the symmetric difference, or None."""
    only_a = a.behaviors - b.behaviors
    only_b = b.behaviors - a.behaviors
    if not only_a and not only_b:
        return None
    parts = []
    for label, extra in ((label_a, only_a), (label_b, only_b)):
        if extra:
            shown = ", ".join(_pretty_sorted(extra)[:3])
            more = f" (+{len(extra) - 3} more)" if len(extra) > 3 else ""
            parts.append(f"{label}-only: {shown}{more}")
    return "; ".join(parts)


def _pretty_sorted(behaviors) -> List[str]:
    # Behaviors sort by rendered text: raw tuple ordering can compare
    # None register values / panic strings against ints and raise.
    return sorted(b.pretty() for b in behaviors)


def _explore_raw(args) -> ExplorationResult:
    """Module-level (picklable) uncached exploration job for the pool."""
    program, cfg, observe = args
    return cached_explore(program, cfg, observe_locs=observe, cache=False)


def _pass_requests(
    spec: WDRFSpec, names: Sequence[str]
) -> List[Tuple[str, PassRequest]]:
    """Fresh ``(name, PassRequest)`` plans (new monitors) for *names*."""
    return [
        (name, plan) for name in names
        for plan in (_condition_plan(spec, name),)
        if isinstance(plan, PassRequest)
    ]


def _wdrf_passes(spec: WDRFSpec) -> Iterator[Tuple[Tuple[str, ...], List]]:
    """Each fused exploration unit of *spec*: its names and plans."""
    for names in plan_passes(spec, fuse=True):
        requests = _pass_requests(spec, names)
        if requests:
            yield names, requests


# ----------------------------------------------------------------------
# the oracles
# ----------------------------------------------------------------------

def _check_containment(subject: Subject) -> List[Disagreement]:
    sc = cached_explore(subject.program, subject.sc,
                        observe_locs=subject.observe)
    rm = cached_explore(subject.program, subject.rm,
                        observe_locs=subject.observe)
    cut = _first_cut("containment", (
        ("the SC search", sc, subject.sc), ("the RM search", rm, subject.rm),
    ))
    if cut is not None:
        return [cut]
    missing = sc.behaviors - rm.behaviors
    if not missing:
        return []
    shown = ", ".join(_pretty_sorted(missing)[:3])
    return [Disagreement(
        oracle="containment",
        detail=f"SC ⊄ RM: {len(missing)} SC behavior(s) unreachable on "
        f"the relaxed model, e.g. {shown}",
    )]


def _check_portability(subject: Subject) -> List[Disagreement]:
    from repro.vrm.portability import check_portability

    return [
        Disagreement(oracle="portability", detail=problem)
        for problem in check_portability(subject.program, subject.rm)
    ]


def _check_equivalence(subject: Subject) -> List[Disagreement]:
    sc = cached_explore(subject.program, subject.sc,
                        observe_locs=subject.observe)
    rm = cached_explore(subject.program, subject.rm,
                        observe_locs=subject.observe)
    cut = _first_cut("equivalence", (
        ("the SC search", sc, subject.sc), ("the RM search", rm, subject.rm),
    ))
    if cut is not None:
        return [cut]
    rm_only = rm.behaviors - sc.behaviors
    if not rm_only:
        return []
    shown = ", ".join(_pretty_sorted(rm_only)[:3])
    return [Disagreement(
        oracle="equivalence",
        detail=f"fully fenced program shows {len(rm_only)} RM-only "
        f"behavior(s): {shown}",
    )]


def _check_axiomatic(subject: Subject) -> List[Disagreement]:
    program = subject.program
    if not eligible(program):
        return []
    ax = axiomatic_outcomes(program)
    op = cached_explore(program, subject.rm, observe_locs=subject.observe)
    if not op.complete:
        return [_budget_cut("axiomatic", "the RM search", op, subject.rm)]
    operational = {(b.registers, b.memory) for b in op.behaviors}
    if ax == operational:
        return []
    only_ax = len(ax - operational)
    only_op = len(operational - ax)
    return [Disagreement(
        oracle="axiomatic",
        detail=f"axiomatic/operational disagreement: {only_ax} "
        f"axiomatic-only, {only_op} operational-only outcome(s)",
    )]


def _check_backend(subject: Subject) -> List[Disagreement]:
    program = subject.program
    out: List[Disagreement] = []
    for label, cfg in subject.models():
        if bmc_supported(program, cfg) is not None:
            continue
        try:
            solved = bmc_explore(program, cfg, subject.observe, cache=False)
        except Unsupported:
            continue  # domain blow-up found during encoding
        explored = cached_explore(program, cfg, observe_locs=subject.observe)
        diff = _behaviors_diff("bmc", solved, "exploration", explored)
        if diff:
            out.append(Disagreement(
                oracle="backend",
                detail=f"BMC changed the {label} behavior set: {diff}",
            ))
    if subject.spec is not None:
        out.extend(
            Disagreement(oracle="backend", detail=detail)
            for detail in _backend_verdict_diffs(subject.spec)
        )
    return out


def _backend_verdict_diffs(spec: WDRFSpec) -> List[str]:
    """The two backends' wDRF verdicts on every encodable pass.

    Verdicts (``holds``) must match exactly.  ``exhaustive`` is compared
    as an implication: the solver may legitimately be exhaustive where a
    budget-cut exploration is not, but never the reverse — unless a
    ``REPRO_BMC_DEPTH`` bound explains the solver's modesty.  Evidence
    strings are backend-flavored and intentionally not compared.
    """
    from repro.smt.backend import bmc_condition_results

    diffs: List[str] = []
    for names, requests in _wdrf_passes(spec):
        cfg = requests[0][1].cfg
        monitors = [plan.monitor for _, plan in requests]
        if bmc_supported(spec.program, cfg, monitors) is not None:
            continue
        try:
            solved = bmc_condition_results(spec.program, cfg, requests,
                                           cache=False)
        except Unsupported:
            continue
        with config.override(backend="explore"):
            explored = dict(zip(names, run_condition_group(spec, names)))
        for name in names:
            if name not in solved:
                continue
            e, b = explored[name], solved[name]
            if e.holds != b.holds:
                diffs.append(
                    f"{name}: exploration holds={e.holds}, BMC "
                    f"holds={b.holds} (BMC violations: {b.violations!r})"
                )
            elif (e.exhaustive and not b.exhaustive
                  and config.get("bmc_depth") is None):
                diffs.append(
                    f"{name}: exploration exhaustive but full-depth BMC "
                    f"is not"
                )
    return diffs


def _check_vm(subject: Subject) -> List[Disagreement]:
    """The ``vm`` profile's translation-soundness properties.

    On the relaxed model with the ``vm`` feature set enabled: (a) every
    fault-free behavior's checked load sees the *new* frame (the updater
    break-before-made honestly before the handshake, so no stale
    translation may survive it), and (b) every fault-free behavior's
    probe store left a dirty leaf entry for vpn B (hardware A/D updates
    are coherence-participating writes).
    """
    cfg = dataclasses.replace(subject.rm, vm_features=VM_PROFILE_FEATURES)
    result = cached_explore(subject.program, cfg,
                            observe_locs=subject.observe)
    stale: List[object] = []
    undirty = 0
    for b in result.behaviors:
        if any(f.tid == 1 for f in b.faults) or b.panic is not None:
            continue
        regs = {(t, r): v for t, r, v in b.registers}
        r_chk = regs.get((1, "r_chk"))
        if r_chk != VM_NEW_VAL:
            stale.append(r_chk)
        memory = dict(b.memory)
        leaves = (
            memory.get(VM_T_OLD + VM_VPN_B),
            memory.get(VM_T_NEW + VM_VPN_B),
        )
        if not any(v is not None and v & PTE_DIRTY for v in leaves):
            undirty += 1
    out: List[Disagreement] = []
    if stale:
        shown = sorted(set(stale), key=repr)[:3]
        out.append(Disagreement(
            oracle="vm",
            detail=f"{len(stale)} fault-free behavior(s) read a stale "
            f"translation after an honest break-before-make handshake "
            f"(r_chk in {shown}, expected {VM_NEW_VAL})",
        ))
    if undirty:
        out.append(Disagreement(
            oracle="vm",
            detail=f"{undirty} fault-free behavior(s) finished the probe "
            f"store without a dirty vpn-B leaf entry (hardware "
            f"dirty-bit update lost)",
        ))
    return out


def _check_vm_neutral(subject: Subject) -> List[Disagreement]:
    # ``explore`` directly: the feature set is part of the cache key, but
    # an uncached run keeps the check honest under any cache state.
    if not vm_neutral_program(subject.program):
        return []
    features = frozenset(VM_FEATURES)
    out: List[Disagreement] = []
    for label, cfg in subject.models():
        featured = explore(
            subject.program, dataclasses.replace(cfg, vm_features=features),
            observe_locs=subject.observe,
        )
        stripped = explore(
            subject.program, dataclasses.replace(cfg, vm_features=frozenset()),
            observe_locs=subject.observe,
        )
        cut = _first_cut("vm_neutral", (
            (f"the featured {label} search", featured, cfg),
            (f"the stripped {label} search", stripped, cfg),
        ))
        if cut is not None:
            out.append(cut)
            continue
        diff = _behaviors_diff("featured", featured, "stripped", stripped)
        if diff:
            out.append(Disagreement(
                oracle="vm_neutral",
                detail=f"VM features {sorted(features)} changed the "
                f"{label} behavior set of an MMU-free program: {diff}",
            ))
    return out


def _check_por(subject: Subject) -> List[Disagreement]:
    out: List[Disagreement] = []
    for label, cfg in subject.models():
        reduced = cached_explore(
            subject.program, cfg, observe_locs=subject.observe, por=True
        )
        full = cached_explore(
            subject.program, cfg, observe_locs=subject.observe, por=False
        )
        cut = _first_cut("por", (
            (f"the reduced {label} search", reduced, cfg),
            (f"the unreduced {label} search", full, cfg),
        ))
        if cut is not None:
            out.append(cut)
            continue
        diff = _behaviors_diff("reduced", reduced, "unreduced", full)
        if diff:
            out.append(Disagreement(
                oracle="por",
                detail=f"POR changed the {label} behavior set: {diff}",
            ))
    return out


def _check_memo(subject: Subject) -> List[Disagreement]:
    job = (subject.program, subject.rm, subject.observe)
    with config.override(cert_memo=True):
        on = _explore_raw(job)
    with config.override(cert_memo=False):
        off = _explore_raw(job)
    out: List[Disagreement] = []
    diff = _behaviors_diff("memoized", on, "unmemoized", off)
    if diff:
        out.append(Disagreement(
            oracle="memo",
            detail=f"certification memo changed the RM behavior set: "
            f"{diff}",
        ))
    elif (on.states_explored, on.complete) != (off.states_explored,
                                                off.complete):
        # A wrong memo hit that happens not to lose a behavior still
        # prunes (or adds) promise successors.
        out.append(Disagreement(
            oracle="memo",
            detail=f"certification memo changed the RM search: "
            f"{on.states_explored} states (complete={on.complete}) "
            f"memoized vs {off.states_explored} "
            f"(complete={off.complete}) unmemoized",
        ))
    return out


def _check_jobs(subject: Subject) -> List[Disagreement]:
    # Four items so plan_jobs actually forks with two workers (two items
    # amortize to a serial plan); duplicates are fine — both sides run
    # uncached, so every position is an honest recomputation.
    job_sc = (subject.program, subject.sc, subject.observe)
    job_rm = (subject.program, subject.rm, subject.observe)
    items = [job_sc, job_rm, job_sc, job_rm]
    pooled = parallel_map(_explore_raw, items, jobs=2)
    serial = [_explore_raw(item) for item in items]
    for idx, (p, s) in enumerate(zip(pooled, serial)):
        diff = _behaviors_diff("pooled", p, "serial", s)
        if diff:
            return [Disagreement(
                oracle="jobs",
                detail=f"pool/serial divergence on item {idx}: {diff}",
            )]
    return []


def _reference_explore(
    program: Program, cfg: ModelConfig, observe: Sequence[int]
) -> ExplorationResult:
    """The bare step relation driven to a fixpoint, for ``reduction``.

    Exact states key the visited set; every thread's instruction,
    promise and store-buffer steps are generated at every state, with
    no certification memo.  ``complete`` is False past the state or
    memory budget.
    """
    cfg = resolve_model(resolve_vm_features(cfg))
    cache = ProgramCache(program)
    start = initial_state(len(program.threads), cfg.initial_ownership)
    seen = {start}
    stack = [start]
    behaviors = set()
    complete = True
    while stack:
        if len(seen) > cfg.max_states:
            complete = False
            break
        state = stack.pop()
        threads = state.threads
        if state.panic is not None or all(
            t.halted and not t.wbuf for t in threads
        ):
            if state.panic is not None or not any(t.promises for t in threads):
                behaviors.add(behavior_of(cache, state, observe))
            continue
        for tidx in range(len(threads)):
            for succ in (
                tso_flush_steps(cache, state, tidx, cfg)
                + execute_instruction(cache, state, tidx, cfg)
                + promise_steps(cache, state, tidx, cfg)
            ):
                if len(succ.memory) > cfg.max_memory:
                    complete = False
                elif succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
    return ExplorationResult(
        behaviors=frozenset(behaviors), complete=complete,
        states_explored=len(seen), cut_paths=0,
    )


def _check_reduction(subject: Subject) -> List[Disagreement]:
    models = [("RM", subject.rm)]
    spec = subject.spec
    if spec is not None:
        # The DRF-Kernel passes explore the spec's push/pull model.
        models.append(("push/pull", pushpull_config(
            relaxed=True,
            owned_access_required=spec.shared_locs,
            initial_ownership=spec.initial_ownership,
            **spec.overrides(),
        )))
    out: List[Disagreement] = []
    for label, cfg in models:
        reduced = cached_explore(subject.program, cfg,
                                 observe_locs=subject.observe)
        if not reduced.complete:
            out.append(_budget_cut(
                "reduction", f"the explorer's {label} search", reduced, cfg,
            ))
            continue
        reference = _reference_explore(subject.program, cfg, subject.observe)
        if not reference.complete:
            out.append(_budget_cut(
                "reduction", f"the reference {label} search", reference, cfg,
            ))
            continue
        diff = _behaviors_diff("explorer", reduced, "reference", reference)
        if diff:
            out.append(Disagreement(
                oracle="reduction",
                detail=f"the explorer's reductions changed the {label} "
                f"behavior set: {diff}",
            ))
    return out


def _diff_reports(fused: WDRFReport, unfused: WDRFReport) -> List[str]:
    diffs: List[str] = []
    if fused.subject != unfused.subject:
        diffs.append(f"subject: {fused.subject!r} != {unfused.subject!r}")
    if fused.weakened != unfused.weakened:
        diffs.append(f"weakened: {fused.weakened} != {unfused.weakened}")
    conditions = set(fused.results) | set(unfused.results)
    for cond in sorted(conditions, key=lambda c: c.value):
        a = fused.results.get(cond)
        b = unfused.results.get(cond)
        if a != b:
            diffs.append(f"{cond.value}: fused {a!r} != per-condition {b!r}")
    return diffs


def _check_fuse(subject: Subject) -> List[Disagreement]:
    spec = subject.wdrf_spec()
    diffs = _diff_reports(
        verify_wdrf(spec, fuse=True), verify_wdrf(spec, fuse=False)
    )
    if diffs:
        return [Disagreement(
            oracle="fuse",
            detail="fused report differs from per-condition report: "
            + "; ".join(diffs),
        )]
    return []


def _check_monitor(subject: Subject) -> List[Disagreement]:
    program = subject.program
    shared = subject.wdrf_spec().shared_locs
    plan = plan_drf_kernel(program, shared)
    if isinstance(plan, ConditionResult):
        # No exploration was planned (uninstrumented program): nothing
        # for the streaming monitor to diverge from.  Genome validity
        # keeps fuzzed sync programs out of this branch.
        return []
    verdict = check_drf_kernel(program, shared)
    truth = cached_explore(program, plan.cfg, observe_locs=[])
    panics = sorted({
        b.panic for b in truth.behaviors
        if b.panic is not None and (
            "DRF violation" in b.panic or "push/pull violation" in b.panic
        )
    })
    if not panics and not truth.complete:
        return [_budget_cut(
            "monitor", "the monitor-free push/pull search", truth, plan.cfg,
        )]
    truth_holds = not panics
    if verdict.holds == truth_holds:
        return []
    if verdict.holds:
        detail = (
            f"monitor verdict holds=True but a monitor-free exhaustive "
            f"exploration reaches {len(panics)} ownership panic(s), "
            f"e.g. {panics[0]!r}"
        )
    else:
        detail = (
            "monitor verdict holds=False but no ownership panic is "
            "reachable in a monitor-free exhaustive exploration"
        )
    return [Disagreement(oracle="monitor", detail=detail)]


#: The registry: every oracle name, in the order :func:`check_program`
#: runs them, with its check and witness kind.
ORACLES: Dict[str, Oracle] = {
    "containment": Oracle(_check_containment, MODEL_DIFF),
    "equivalence": Oracle(_check_equivalence, MODEL_DIFF),
    "axiomatic": Oracle(_check_axiomatic, MODEL_DIFF),
    "backend": Oracle(_check_backend, MODEL_DIFF),
    "monitor": Oracle(_check_monitor, CONFIG),
    "vm": Oracle(_check_vm, VM),
    "por": Oracle(_check_por, CONFIG),
    "memo": Oracle(_check_memo, CONFIG),
    "reduction": Oracle(_check_reduction, CONFIG),
    "portability": Oracle(_check_portability, MODEL_DIFF),
    "vm_neutral": Oracle(_check_vm_neutral, VM),
    "fuse": Oracle(_check_fuse, CONFIG),
    "jobs": Oracle(_check_jobs, CONFIG),
}


def check_program(
    program: Program,
    oracles: Sequence[str],
    spec: Optional[WDRFSpec] = None,
    sc: ModelConfig = SC,
    rm: ModelConfig = PROMISING_ARM,
) -> List[Disagreement]:
    """Run the named oracles on *program*; [] means full agreement.

    Each entry is a disagreement or, with ``inconclusive`` set, a check
    that a budget cut before it compared anything (see
    :class:`Disagreement`): never read as agreement, never a finding.

    *spec* (whose program must be *program*) adds the spec's wDRF passes
    to the spec-aware oracles (``backend``, ``fuse``, ``monitor``); *sc*/*rm* are the two model configurations the
    behavior oracles explore.  Oracles run in registry order; an unknown
    name raises :class:`ValueError`.
    """
    unknown = sorted(set(oracles) - set(ORACLES))
    if unknown:
        raise ValueError(f"unknown oracle(s) {', '.join(map(repr, unknown))}")
    subject = Subject(program=program, spec=spec, sc=sc, rm=rm)
    out: List[Disagreement] = []
    for name, oracle in ORACLES.items():
        if name in oracles:
            out.extend(oracle.check(subject))
    return out


def check_genome(
    genome: Genome,
    oracles: Optional[Sequence[str]] = None,
    heavy: bool = False,
) -> List[Disagreement]:
    """Run the conformance oracles for *genome*; [] means full agreement.

    ``oracles`` overrides the profile-derived selection (used by the
    shrinker and corpus replay, which chase one specific relation);
    ``heavy=True`` adds the expensive cross-checks (``jobs`` for data
    profiles, ``fuse`` for ``sync``) on top of the defaults.
    """
    if oracles is None:
        oracles = oracles_for(genome.profile, heavy=heavy)
    program = build(genome)
    spec = WDRFSpec(program=program, shared_locs=shared_locations(genome))
    return check_program(program, oracles, spec=spec)
