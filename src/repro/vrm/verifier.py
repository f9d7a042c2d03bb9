"""The one-call wDRF verification pipeline.

:class:`WDRFSpec` bundles everything the six condition checkers need for
one kernel program (or one compiled KCore primitive pair):

* the instrumented program itself,
* the shared-data footprint (locations requiring ownership),
* seed ownership,
* the kernel-page-table locations,
* the probe addresses for the transactional check.

:func:`verify_wdrf` runs all six checks and returns a
:class:`~repro.vrm.conditions.WDRFReport`; :func:`verify_and_check_theorem`
additionally validates the end-to-end guarantee (RM ⊆ SC) — which must
follow when the report verifies, and is how the test suite exercises the
soundness of the whole framework.

Pass fusion
-----------

The exploration-backed checkers don't run their own explorations: each
exposes a ``plan_*`` function returning either a ready
:class:`~repro.vrm.conditions.ConditionResult` or a
:class:`~repro.vrm.conditions.PassRequest` (a model configuration plus a
streaming monitor).  :func:`plan_passes` groups requests whose
``(program, cfg, observe_locs)`` coincide — keyed by the same
:func:`~repro.memory.cache.exploration_key` the cache uses — and
:func:`run_condition_group` serves each group with a *single* exploration
carrying all of its monitors.  On the standard specs this fuses
DRF-Kernel with No-Barrier-Misuse (identical push/pull configuration)
and Write-Once with Memory-Isolation (identical relaxed base
configuration), cutting ``verify_wdrf`` to at most two explorations.
Because the DFS order is deterministic, every monitor observes the same
callback prefix fused or alone, so fused reports are bit-identical to
per-condition ones; the ``fuse`` conformance oracle
(:mod:`repro.conformance.oracles`) checks exactly that.  ``REPRO_FUSE=0``
(or the CLI's ``--no-fuse``) disables the whole streaming pipeline:
every check runs as its own *exhaustive* pass — the legacy layout,
with monitor early-exit off as well as fusion.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import config
from repro.ir.program import Program
from repro.memory.cache import (
    cached_explore,
    code_fingerprint,
    exploration_key,
    monitor_code_fingerprint,
    monitored_exploration_key,
    program_fingerprint,
)
from repro.memory.datatypes import EngineStats, ExplorationResult
from repro.memory.exploration import por_default_enabled
from repro.obs import metrics, tracer
from repro.parallel import parallel_map
from repro.vrm.barrier_misuse import plan_no_barrier_misuse
from repro.vrm.conditions import (
    ConditionResult,
    PassRequest,
    WDRFCondition,
    WDRFReport,
)
from repro.vrm.drf_kernel import plan_drf_kernel
from repro.vrm.isolation import plan_memory_isolation
from repro.vrm.theorem import TheoremResult, check_theorem1, check_theorem4
from repro.vrm.tlb_sequential import check_sequential_tlb_invalidation
from repro.vrm.transactional import check_program_transactional
from repro.vrm.write_once import plan_write_once


@dataclass(frozen=True)
class WDRFSpec:
    """Verification inputs for one kernel program."""

    program: Program
    shared_locs: Tuple[int, ...] = ()
    initial_ownership: Tuple[Tuple[int, int], ...] = ()
    kernel_pt_locs: Optional[Tuple[int, ...]] = None
    probe_vpns: Optional[Tuple[int, ...]] = None
    weakened: bool = True
    model_overrides: Tuple[Tuple[str, object], ...] = ()

    def overrides(self) -> Dict[str, object]:
        """The spec's model overrides as ModelConfig keyword arguments."""
        return dict(self.model_overrides)


#: The six checks in report order.  Each entry is a stable name the
#: pool worker dispatches on (check functions take differing arguments).
CONDITION_CHECKS: Tuple[str, ...] = (
    "drf_kernel",
    "no_barrier_misuse",
    "write_once",
    "transactional",
    "tlb_sequential",
    "memory_isolation",
)

#: Checks that never explore — they are pure structural/functional
#: decision procedures, so the pass planner gives each its own unit
#: without running it at plan time.
_NON_EXPLORING: Tuple[str, ...] = ("transactional", "tlb_sequential")


def fuse_default_enabled() -> bool:
    """Pass fusion is on unless ``REPRO_FUSE=0``."""
    return config.get("fuse")


@dataclass
class VerifyStats:
    """Aggregated exploration counters of one or more ``verify_wdrf``
    runs (pass ``collect=`` to gather them; serial runs only)."""

    explorations: int = 0
    states_explored: int = 0
    fused_conditions: int = 0
    monitor_stops: int = 0
    stopped_early: int = 0
    bmc_passes: int = 0
    engine: EngineStats = field(default_factory=EngineStats)

    def record_pass(self, result: ExplorationResult) -> None:
        """Record one exploration pass's figures into the report."""
        self.explorations += 1
        self.states_explored += result.states_explored
        if result.stopped_early:
            self.stopped_early += 1
        if result.stats is not None:
            self.engine.add(result.stats)
            self.fused_conditions += result.stats.fused_conditions
            self.monitor_stops += result.stats.monitor_stops

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form of the report (used by bench output)."""
        return {
            "explorations": self.explorations,
            "states_explored": self.states_explored,
            "fused_conditions": self.fused_conditions,
            "monitor_stops": self.monitor_stops,
            "stopped_early": self.stopped_early,
            "bmc_passes": self.bmc_passes,
            "engine": self.engine.as_dict(),
        }


def _condition_plan(spec: WDRFSpec, name: str):
    """The plan for one named check: a ready result or a PassRequest."""
    overrides = spec.overrides()
    if name == "drf_kernel":
        return plan_drf_kernel(
            spec.program, spec.shared_locs, spec.initial_ownership, **overrides
        )
    if name == "no_barrier_misuse":
        return plan_no_barrier_misuse(
            spec.program, spec.shared_locs, spec.initial_ownership, **overrides
        )
    if name == "write_once":
        return plan_write_once(spec.program, spec.kernel_pt_locs, **overrides)
    if name == "transactional":
        return check_program_transactional(spec.program, spec.probe_vpns)
    if name == "tlb_sequential":
        return check_sequential_tlb_invalidation(spec.program)
    if name == "memory_isolation":
        return plan_memory_isolation(
            spec.program, weak=spec.weakened, **overrides
        )
    raise ValueError(f"unknown wDRF condition check {name!r}")


def run_condition(spec: WDRFSpec, name: str) -> ConditionResult:
    """Run one named wDRF condition check for *spec* (a pass of its own)."""
    results = run_condition_group(spec, (name,))
    return results[0]


def run_condition_group(
    spec: WDRFSpec,
    names: Sequence[str],
    collect: Optional[VerifyStats] = None,
    monitor_cut: bool = True,
) -> List[ConditionResult]:
    """Run a group of wDRF checks, sharing one exploration pass.

    Module-level (dispatching on plain strings) so it pickles into pool
    workers: the plans — and their monitors — are rebuilt in the worker,
    only the names and the spec cross the process boundary.  All
    exploring checks in *names* must share an identical ``(cfg,
    observe_locs)`` (the planner guarantees this); their monitors ride a
    single :func:`~repro.memory.cache.cached_explore` call.
    ``monitor_cut=False`` runs the pass exhaustively (the legacy
    per-condition behavior) instead of cutting the search once every
    monitor has its verdict; verdicts are bit-identical either way.
    """
    names = tuple(names)
    if tracer.SINK is not None:
        with tracer.SINK.span(
            "wdrf_pass", subject=spec.program.name, conditions=list(names)
        ):
            return _run_condition_group(spec, names, collect, monitor_cut)
    return _run_condition_group(spec, names, collect, monitor_cut)


def _run_condition_group(
    spec: WDRFSpec,
    names: Tuple[str, ...],
    collect: Optional[VerifyStats],
    monitor_cut: bool,
) -> List[ConditionResult]:
    """The :func:`run_condition_group` body (span bracketing lives in
    the wrapper so the traced and untraced paths share this code)."""
    plans = [(name, _condition_plan(spec, name)) for name in names]
    results: Dict[str, ConditionResult] = {
        name: plan for name, plan in plans
        if isinstance(plan, ConditionResult)
    }
    requests = [
        (name, plan) for name, plan in plans if isinstance(plan, PassRequest)
    ]
    if requests:
        base = requests[0][1]
        for name, plan in requests[1:]:
            if plan.cfg != base.cfg or plan.observe_locs != base.observe_locs:
                raise ValueError(
                    f"cannot fuse {name!r} with {requests[0][0]!r}: "
                    f"exploration configurations differ"
                )
        monitors = [plan.monitor for _, plan in requests]
        bmc_results = _maybe_bmc(spec, base, requests, monitors, collect)
        if bmc_results is not None:
            results.update(bmc_results)
            return [results[name] for name in names]
        exploration = cached_explore(
            spec.program,
            base.cfg,
            observe_locs=list(base.observe_locs),
            monitors=monitors,
            monitor_cut=monitor_cut,
        )
        if collect is not None:
            collect.record_pass(exploration)
        if metrics.ENABLED:
            reg = metrics.REGISTRY
            reg.counter("verify.passes").inc()
            reg.counter("verify.fused_conditions").inc(len(requests) - 1)
            reg.histogram("verify.pass_states").observe(
                exploration.states_explored
            )
        for name, plan in requests:
            results[name] = plan.monitor.finalize(exploration)
    return [results[name] for name in names]


def _maybe_bmc(
    spec: WDRFSpec,
    base: PassRequest,
    requests: List[Tuple[str, PassRequest]],
    monitors: List[object],
    collect: Optional[VerifyStats],
) -> Optional[Dict[str, ConditionResult]]:
    """BMC verdicts for one fused group, or None to use exploration.

    Only ``REPRO_BACKEND=bmc`` asks for them, and only a group inside
    the SAT-encodable fragment gets them.
    """
    if config.get("backend") != "bmc":
        return None
    # Imported lazily: repro.smt.backend consumes repro.vrm.conditions,
    # so a module-level import here would be circular.
    from repro.smt.backend import bmc_condition_results, bmc_supported
    from repro.smt.encode import Unsupported

    if bmc_supported(spec.program, base.cfg, monitors) is not None:
        return None
    try:
        verdicts = bmc_condition_results(
            spec.program, base.cfg, requests
        )
    except Unsupported:
        return None  # domain blow-up discovered during encoding
    if collect is not None:
        collect.bmc_passes += 1
    if metrics.ENABLED:
        metrics.REGISTRY.counter("verify.bmc_passes").inc()
    return verdicts


def plan_passes(
    spec: WDRFSpec,
    fuse: Optional[bool] = None,
    por: Optional[bool] = None,
) -> List[Tuple[str, ...]]:
    """Group the six checks into exploration-sharing units of work.

    Checks whose plans request explorations with the same cache
    fingerprint (per :func:`~repro.memory.cache.exploration_key`, the
    same identity the memo uses) land in one unit; ready verdicts and
    non-exploring checks stay singleton units.  With ``fuse=False``
    every check is its own unit (the legacy per-condition layout;
    :func:`_verify` additionally runs those units exhaustively).
    """
    if fuse is None:
        fuse = fuse_default_enabled()
    if por is None:
        por = por_default_enabled()
    units: List[Tuple[str, ...]] = []
    groups: Dict[str, int] = {}
    for name in CONDITION_CHECKS:
        if not fuse or name in _NON_EXPLORING:
            units.append((name,))
            continue
        plan = _condition_plan(spec, name)
        if isinstance(plan, ConditionResult):
            units.append((name,))
            continue
        key = exploration_key(
            spec.program, plan.cfg, tuple(plan.observe_locs), False, por
        )
        if key in groups:
            units[groups[key]] = units[groups[key]] + (name,)
        else:
            groups[key] = len(units)
            units.append((name,))
    return units


def pass_fingerprints(
    spec: WDRFSpec,
    fuse: Optional[bool] = None,
    por: Optional[bool] = None,
) -> List[str]:
    """Content keys of the units :func:`plan_passes` would run.

    One digest per unit, in unit order.  Exploring units reuse the exact
    :func:`~repro.memory.cache.monitored_exploration_key` their pass
    would be cached under, so two specs share a fingerprint list iff
    their verifications would replay the same cache entries.  Ready and
    non-exploring units (which never touch the exploration cache) get a
    digest over the engine fingerprints plus every spec input their
    checkers read.  The serving layer hashes this list into one job
    content address for wDRF requests.
    """
    if por is None:
        por = por_default_enabled()
    units = plan_passes(spec, fuse=fuse, por=por)
    keys: List[str] = []
    for names in units:
        # A non-exploring check is a singleton unit whose plan would be
        # its whole verdict: it never has a pass key, so skip running it.
        plans = [] if names[0] in _NON_EXPLORING else [
            _condition_plan(spec, name) for name in names
        ]
        if plans and all(isinstance(p, PassRequest) for p in plans):
            base = plans[0]
            keys.append(
                monitored_exploration_key(
                    spec.program,
                    base.cfg,
                    tuple(base.observe_locs),
                    por,
                    [p.monitor for p in plans],
                )
            )
            continue
        text = "\x00".join(
            (
                "wdrf-unit",
                code_fingerprint(),
                monitor_code_fingerprint(),
                program_fingerprint(spec.program),
                repr(spec.shared_locs),
                repr(spec.initial_ownership),
                repr(spec.kernel_pt_locs),
                repr(spec.probe_vpns),
                repr(bool(spec.weakened)),
                repr(spec.model_overrides),
                ",".join(names),
            )
        )
        keys.append(hashlib.sha256(text.encode()).hexdigest())
    return keys


def _verify(
    spec: WDRFSpec,
    jobs: Optional[int],
    fuse: bool,
    collect: Optional[VerifyStats],
) -> WDRFReport:
    report = WDRFReport(subject=spec.program.name, weakened=spec.weakened)
    units = plan_passes(spec, fuse=fuse)
    # The unfused layout *is* the legacy pipeline: per-condition passes
    # that exhaust the state space.  Early exit (like fusion itself) is
    # part of the streaming pipeline being measured against it, so it is
    # disabled together with fusion — a stopped monitor's counters
    # freeze at its stop point either way, so reports stay bit-identical.
    cut = fuse
    if collect is not None:
        # Stats collection needs the exploration results, which do not
        # cross the pool boundary: run serially.
        for names in units:
            for result in run_condition_group(
                spec, names, collect, monitor_cut=cut
            ):
                report.add(result)
        return report
    worker = functools.partial(run_condition_group, spec, monitor_cut=cut)
    for results in parallel_map(worker, units, jobs=jobs):
        for result in results:
            report.add(result)
    return report


def verify_wdrf(
    spec: WDRFSpec,
    jobs: Optional[int] = None,
    fuse: Optional[bool] = None,
    collect: Optional[VerifyStats] = None,
) -> WDRFReport:
    """Run all six wDRF condition checks for *spec*.

    ``jobs`` fans the independent units of work out over a process pool
    (``None``/``0`` = serial, negative = all CPUs); the report is merged
    in the fixed condition order either way.  ``fuse`` overrides the
    pass-fusion default (``REPRO_FUSE``).
    """
    if fuse is None:
        fuse = fuse_default_enabled()
    return _verify(spec, jobs, fuse, collect)


def verify_and_check_theorem(
    spec: WDRFSpec, jobs: Optional[int] = None
) -> Tuple[WDRFReport, TheoremResult]:
    """Verify the conditions *and* the guarantee they are meant to imply.

    Returns the condition report and the Theorem 1/4 containment result;
    soundness of the framework means: if the report verifies, the
    containment holds.
    """
    report = verify_wdrf(spec, jobs=jobs)
    overrides = spec.overrides()
    if spec.weakened:
        theorem = check_theorem4(spec.program, jobs=jobs, **overrides)
    else:
        theorem = check_theorem1(spec.program, jobs=jobs, **overrides)
    return report, theorem
