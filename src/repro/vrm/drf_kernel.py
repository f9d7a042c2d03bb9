"""Condition 1 — DRF-Kernel, via push/pull panic-freedom (Section 4.1).

A kernel program satisfies DRF-Kernel iff all of its shared-memory
accesses (outside synchronization implementations and page-table
management) are protected by synchronization.  Following the paper, the
check instruments critical sections with ``Pull``/``Push`` primitives and
explores the program on the *push/pull Promising* model: the condition
holds iff no execution panics on an ownership violation.

Running the check on the relaxed base model (rather than SC) is what
makes it meaningful: the conditions "must themselves hold on RM hardware"
(Section 3), and indeed a lock whose barriers are missing lets two CPUs
enter the critical section simultaneously *only* under relaxed execution,
which the ownership discipline then catches.

The check is a *violation-existence* search, so it streams: the
:class:`DRFKernelMonitor` watches panics as the explorer reaches them and
stops the search at the first ownership violation — a definitive
counterexample needs no further states.  :func:`plan_drf_kernel` exposes
the underlying exploration request so the pass planner in
:mod:`repro.vrm.verifier` can fuse it with other checkers sharing the
same configuration.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple, Union

from repro.ir.instructions import Pull, Push
from repro.ir.program import Program
from repro.memory import mutants
from repro.memory.cache import cached_explore
from repro.memory.datatypes import ExplorationMonitor, ExplorationResult
from repro.memory.pushpull import pushpull_config
from repro.vrm.conditions import ConditionResult, PassRequest, WDRFCondition


def _has_pushpull_instrumentation(program: Program) -> bool:
    for thread in program.kernel_threads():
        for instr in thread.instrs:
            if isinstance(instr, (Pull, Push)):
                return True
    return False


class DRFKernelMonitor(ExplorationMonitor):
    """Streams panics; stops at the first ownership violation."""

    kind = "drf_kernel"
    # The verdict is "some panic of this kind is reachable", and renaming
    # CPUs never changes a panic's kind.
    symmetric = True
    extra_state = ("violations",)

    def __init__(self) -> None:
        super().__init__()
        self.violations: Tuple[str, ...] = ()

    def on_panic(self, reason: str, state: Any) -> None:
        """Record an ownership-discipline panic and stop the exploration."""
        if mutants.enabled("weaken-drf-monitor"):  # seeded bug class
            return
        if "DRF violation" in reason or "push/pull violation" in reason:
            self.violations = self.violations + (reason,)
            self.stop()

    def finalize(self, result: ExplorationResult) -> ConditionResult:
        """Turn the recorded panics into the DRF-Kernel verdict."""
        # A stopped monitor holds a definitive counterexample: its figures
        # are frozen at the stop point (identical whether the pass ran
        # fused or alone) and the verdict is exhaustive by construction.
        states = self.states_seen if self.stopped else result.states_explored
        exhaustive = True if self.stopped else result.complete
        return ConditionResult(
            condition=WDRFCondition.DRF_KERNEL,
            holds=not self.violations,
            exhaustive=exhaustive,
            evidence=(
                f"explored {states} states on the push/pull Promising "
                f"model; {self.terminals_seen + self.panics_seen} terminal "
                f"states streamed",
            ),
            violations=self.violations,
        )


def plan_drf_kernel(
    program: Program,
    shared_locs: Iterable[int],
    initial_ownership: Iterable[Tuple[int, int]] = (),
    **overrides,
) -> Union[ConditionResult, PassRequest]:
    """Plan the DRF-Kernel check: a ready verdict or an exploration.

    Returns a :class:`ConditionResult` directly when no exploration is
    needed (uninstrumented program), otherwise a :class:`PassRequest`
    whose monitor's ``finalize`` produces the verdict.
    """
    shared = frozenset(shared_locs)
    if shared and not _has_pushpull_instrumentation(program):
        return ConditionResult(
            condition=WDRFCondition.DRF_KERNEL,
            holds=False,
            exhaustive=True,
            violations=(
                "program declares shared locations but has no push/pull "
                "instrumentation: shared accesses cannot be protected",
            ),
        )
    cfg = pushpull_config(
        relaxed=True,
        owned_access_required=shared,
        initial_ownership=tuple(initial_ownership),
        **overrides,
    )
    return PassRequest(cfg=cfg, observe_locs=(), monitor=DRFKernelMonitor())


def check_drf_kernel(
    program: Program,
    shared_locs: Iterable[int],
    initial_ownership: Iterable[Tuple[int, int]] = (),
    **overrides,
) -> ConditionResult:
    """Check DRF-Kernel for an instrumented kernel program.

    ``shared_locs`` are the kernel's shared-data locations (critical
    section footprints): any access to them outside ownership panics.
    ``initial_ownership`` seeds locations already held (e.g. a vCPU
    context owned by the CPU currently running that vCPU).
    """
    plan = plan_drf_kernel(
        program, shared_locs, initial_ownership, **overrides
    )
    if isinstance(plan, ConditionResult):
        return plan
    result = cached_explore(
        program, plan.cfg, observe_locs=list(plan.observe_locs),
        monitors=[plan.monitor],
    )
    return plan.monitor.finalize(result)
