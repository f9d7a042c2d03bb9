"""Condition 2 — No-Barrier-Misuse (Sections 3 and 4.1).

Barriers must guard critical sections and synchronization methods: the
paper's operational reading is that every *pull* promise is fulfilled by
a load barrier and every *push* promise by a store barrier, so a
critical section's body can never be reordered with the synchronization
that protects it.

Two complementary checks implement this:

* **Dynamic** (:func:`plan_no_barrier_misuse`, the pass the verifier
  runs): explore the instrumented program on the push/pull Promising
  model; the executor panics on any ``Pull`` whose preceding ``Push``
  is not covered by the pulling CPU's barrier frontier — exactly "the
  pull promise was not fulfilled by a barrier".  This catches missing
  acquire loads *and* missing release stores (a promoted sync write
  lands before the push point, so the puller's frontier cannot cover
  it).
* **Static** (:func:`check_no_barrier_misuse_static`): a structural scan
  that each ``Pull`` is dominated by an acquire (or full barrier) since
  the last synchronization read and each ``Push`` is post-dominated by a
  release (or full barrier) before the next synchronization write —
  Figure 7's shape.

The dynamic half streams: :class:`BarrierMisuseMonitor` stops the search
at the first barrier-fulfillment panic, and :func:`plan_no_barrier_misuse`
exposes the exploration request (with the static verdict folded in at
plan time) so the pass planner can fuse it with the DRF-Kernel check,
which runs on the identical push/pull configuration.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple, Union

from repro.ir.instructions import (
    Barrier,
    BarrierKind,
    CompareAndSwap,
    FetchAndInc,
    Load,
    LoadExclusive,
    MemSpace,
    Pull,
    Push,
    Store,
    StoreExclusive,
)
from repro.ir.program import Program, Thread
from repro.memory.cache import cached_explore
from repro.memory.datatypes import ExplorationMonitor, ExplorationResult
from repro.memory.pushpull import pushpull_config
from repro.vrm.conditions import ConditionResult, PassRequest, WDRFCondition


def _static_thread_violations(thread: Thread) -> List[str]:
    """Scan one thread for pulls/pushes not guarded by barriers.

    The scan is linear over the instruction stream (loops appear as the
    same instructions; a barrier inside the loop body guards re-entry).
    """
    violations: List[str] = []
    # A pull with no preceding synchronization read orders against
    # nothing (the location's last push, if any, predates this thread's
    # execution) — matching the dynamic rule's push_ts=0 base case.
    covered_by_acquire = True
    for idx, instr in enumerate(thread.instrs):
        if isinstance(instr, Barrier) and instr.kind in (
            BarrierKind.FULL,
            BarrierKind.LD,
        ):
            covered_by_acquire = True
        elif isinstance(
            instr, (Load, LoadExclusive, FetchAndInc, CompareAndSwap)
        ) and instr.space is MemSpace.SYNC:
            covered_by_acquire = bool(getattr(instr, "acquire", False))
        elif isinstance(instr, Pull):
            if not covered_by_acquire:
                violations.append(
                    f"thread {thread.tid} pc {idx}: pull not preceded by an "
                    f"acquire/load barrier since the last synchronization read"
                )
        elif isinstance(instr, Push):
            # Look forward for the synchronization write that publishes
            # the push; it must be a release store or preceded by a
            # barrier ordering prior writes.
            ok = False
            for later in thread.instrs[idx + 1:]:
                if isinstance(later, Barrier) and later.kind in (
                    BarrierKind.FULL,
                    BarrierKind.ST,
                ):
                    ok = True
                    break
                if isinstance(
                    later, (Store, StoreExclusive, FetchAndInc, CompareAndSwap)
                ) and getattr(later, "space", None) is MemSpace.SYNC:
                    ok = bool(getattr(later, "release", False))
                    break
            else:
                # No publishing write at all: nothing to reorder against.
                ok = True
            if not ok:
                violations.append(
                    f"thread {thread.tid} pc {idx}: push not followed by a "
                    f"release/store barrier before its synchronization write"
                )
    return violations


def check_no_barrier_misuse_static(program: Program) -> ConditionResult:
    """Structural barrier-placement check over all kernel threads."""
    violations: List[str] = []
    for thread in program.kernel_threads():
        violations.extend(_static_thread_violations(thread))
    return ConditionResult(
        condition=WDRFCondition.NO_BARRIER_MISUSE,
        holds=not violations,
        exhaustive=True,
        evidence=(
            f"scanned {len(program.kernel_threads())} kernel threads for "
            f"pull/push barrier guards",
        ),
        violations=tuple(violations),
    )


class BarrierMisuseMonitor(ExplorationMonitor):
    """Streams panics; stops at the first barrier-fulfillment violation.

    The optional *static* result (the structural scan, computed at plan
    time) is combined into the final verdict; it is derived from the
    program — already part of the exploration's cache key — so it is not
    monitor state and is recomputed, never cached.
    """

    kind = "barrier_misuse"
    # The verdict is "some panic of this kind is reachable", and renaming
    # CPUs never changes a panic's kind.
    symmetric = True
    extra_state = ("violations",)

    def __init__(self, static: Optional[ConditionResult] = None) -> None:
        super().__init__()
        self.violations: Tuple[str, ...] = ()
        self._static = static

    def on_panic(self, reason: str, state: Any) -> None:
        """Record a barrier-misuse panic and stop the exploration."""
        if "No-Barrier-Misuse" in reason:
            self.violations = self.violations + (reason,)
            self.stop()

    def finalize(self, result: ExplorationResult) -> ConditionResult:
        """Fold the dynamic evidence into the static plan's verdict."""
        states = self.states_seen if self.stopped else result.states_explored
        exhaustive = True if self.stopped else result.complete
        dynamic = ConditionResult(
            condition=WDRFCondition.NO_BARRIER_MISUSE,
            holds=not self.violations,
            exhaustive=exhaustive,
            evidence=(
                f"explored {states} states; pull barrier-"
                f"fulfillment enforced dynamically",
            ),
            violations=self.violations,
        )
        static = self._static
        if static is None:
            return dynamic
        return ConditionResult(
            condition=WDRFCondition.NO_BARRIER_MISUSE,
            holds=static.holds and dynamic.holds,
            exhaustive=static.exhaustive and dynamic.exhaustive,
            evidence=static.evidence + dynamic.evidence,
            violations=static.violations + dynamic.violations,
        )


def plan_no_barrier_misuse(
    program: Program,
    shared_locs: Iterable[int] = (),
    initial_ownership: Iterable[Tuple[int, int]] = (),
    static: bool = True,
    **overrides,
) -> PassRequest:
    """Plan the No-Barrier-Misuse check as an exploration request.

    The static structural scan runs here, at plan time, and rides along
    in the monitor; the dynamic half is the returned exploration.
    """
    cfg = pushpull_config(
        relaxed=True,
        owned_access_required=frozenset(shared_locs),
        initial_ownership=tuple(initial_ownership),
        **overrides,
    )
    static_result = check_no_barrier_misuse_static(program) if static else None
    return PassRequest(
        cfg=cfg, observe_locs=(),
        monitor=BarrierMisuseMonitor(static=static_result),
    )


def check_no_barrier_misuse(
    program: Program,
    shared_locs: Iterable[int] = (),
    initial_ownership: Iterable[Tuple[int, int]] = (),
    **overrides,
) -> ConditionResult:
    """Combined static + dynamic No-Barrier-Misuse check."""
    plan = plan_no_barrier_misuse(
        program, shared_locs, initial_ownership, **overrides
    )
    result = cached_explore(
        program, plan.cfg, observe_locs=list(plan.observe_locs),
        monitors=[plan.monitor],
    )
    return plan.monitor.finalize(result)
