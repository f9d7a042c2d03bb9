"""Independence-based partial-order reduction for the explorer.

The DFS in :mod:`repro.memory.exploration` enumerates every scheduler
interleaving.  Most of those interleavings are redundant: steps of
different threads that commute *exactly* — the machine state after
``a;b`` equals the state after ``b;a`` — need only be explored in one
order.  This module implements an ample-set reduction built on one
commutation fact of the single-timeline Promising model:

**Local steps commute with everything.**  ``Label``/``Nop``/``Mov``/
``Jump``/conditional branches read and write only the acting thread's
context.  They never append to the timeline, can never be disabled, and
are deterministic, so a thread whose next instruction is local can be
scheduled *exclusively* without losing any state — on any program.  Two
exceptions, read from a per-``(tidx, pc)`` table built once per
exploration: a backward ``Jump`` or branch is never ample (the cycle
proviso: a loop of local steps must not starve the other threads), and a
``Mov`` into an observed register is ample only while no other thread
can panic, since a panic reached before it would freeze the old value.
Under TSO the pass is off.

The commutation is *state-level* (not merely behavioral), so the
reduced search reaches the same terminal behaviors.  The ``por``
conformance oracle (:mod:`repro.conformance.oracles`) runs both searches
and asserts the behavior sets coincide; the ``reduction`` oracle
compares with a reference search that reduces nothing.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ir.instructions import (
    BranchIfNonZero,
    BranchIfZero,
    Jump,
    Label,
    Mov,
    Nop,
)
from repro.memory import mutants

#: Instructions that read and write only the acting thread's context.
LOCAL_INSTRS = (Label, Nop, Mov, Jump, BranchIfZero, BranchIfNonZero)


#: Below this many total instructions, a non-relaxed exploration is so
#: small that building the :class:`PORPlan` tables and running the
#: per-state ample checks cost about as much as the interleavings they
#: prune — the litmus corpus once measured a net 0.98x "speedup" with
#: the reduction unconditionally on.  Relaxed explorations are never
#: gated: promise steps blow the state space up enough that the
#: reduction always pays for itself.
POR_GATE_MIN_INSTRS = 16


def por_worthwhile(program, cfg) -> bool:
    """Cheap static gate: is the reduction worth its bookkeeping?

    Skipping is always behavior-preserving (the reduction itself is);
    this gate is purely a cost call.  The explorer records a skip in
    :class:`~repro.memory.datatypes.EngineStats` as ``por_gate_skips``.
    """
    if cfg.relaxed:
        return True
    total = sum(len(t.instrs) for t in program.threads)
    return total >= POR_GATE_MIN_INSTRS


#: :attr:`PORPlan.local` codes, one per ``(tidx, pc)``.
NOT_AMPLE, AMPLE, AMPLE_UNLESS_PANIC = 0, 1, 2


def _local_codes(cache, tidx: int, cfg) -> Tuple[int, ...]:
    """The local-step table of thread *tidx*: may its step at each pc (the
    thread length is the halt step) be scheduled alone?

    A backward ``Jump`` or branch never is (the cycle proviso: a loop of
    local steps must not starve the other threads), and a ``Mov`` into an
    observed register is only while no other thread can panic — a panic
    reached before the ``Mov`` freezes a different register value.
    Under push/pull every kernel access can panic, so such a ``Mov``
    never is.
    """
    thread = cache.threads[tidx]
    labels = cache.labels[tidx]
    codes = []
    for pc, instr in enumerate(thread.instrs):
        if isinstance(instr, (Jump, BranchIfZero, BranchIfNonZero)):
            code = AMPLE if labels.get(instr.target, -1) > pc else NOT_AMPLE
        elif isinstance(instr, Mov) and instr.dst in thread.observed:
            if cfg.pushpull:
                code = NOT_AMPLE
            elif mutants.enabled("ample-ignores-panic"):  # seeded bug
                code = AMPLE
            else:
                code = AMPLE_UNLESS_PANIC
        elif isinstance(instr, LOCAL_INSTRS):
            code = AMPLE
        else:
            code = NOT_AMPLE
        codes.append(code)
    codes.append(AMPLE)  # the halt step
    return tuple(codes)


class PORPlan:
    """Per-exploration reduction plan: a thread at a local step runs
    alone, on every program outside TSO, through the per-``(tidx, pc)``
    table ``local`` (None under TSO, or when no pc of any thread
    qualifies).  ``useful`` is False when the table can never fire, so
    the explorer can drop the plan.
    """

    __slots__ = ("local", "panicky")

    def __init__(self, cache, cfg):
        self.local: Optional[Tuple[Tuple[int, ...], ...]] = None
        self.panicky = None
        if not cfg.tso:
            local = tuple(
                _local_codes(cache, tidx, cfg)
                for tidx in range(len(cache.threads))
            )
            if any(AMPLE_UNLESS_PANIC in codes for codes in local):
                self.panicky = cache.panic_table()
                if self.panicky is None:  # nothing can panic
                    local = tuple(
                        tuple(AMPLE if c == AMPLE_UNLESS_PANIC else c
                              for c in codes)
                        for codes in local
                    )
            # Only an empty thread ever stands at its halt entry: the step
            # that takes any other thread to its length halts it.
            if any(
                len(codes) == 1
                or any(code != NOT_AMPLE for code in codes[:-1])
                for codes in local
            ):
                self.local = local

    @property
    def useful(self) -> bool:
        return self.local is not None

    def _no_other_panic(self, threads, tidx: int) -> bool:
        panicky = self.panicky
        return not any(
            not ctx.halted and panicky[other][ctx.pc]
            for other, ctx in enumerate(threads) if other != tidx
        )

    def ample_thread(self, state, stats=None) -> Optional[int]:
        """A thread index safe to schedule exclusively at *state*, or
        ``None`` when the full successor expansion is required.

        Selection is deterministic (the lowest-index thread at an ample
        local step) so explorations stay reproducible.  When the caller
        passes the exploration's :class:`~repro.memory.datatypes.
        EngineStats`, every ample selection bumps ``por_ample_hits``.
        """
        threads = state.threads
        local = self.local
        for tidx, ctx in enumerate(threads):
            if ctx.halted:
                continue
            code = local[tidx][ctx.pc]
            if code == AMPLE or (
                code == AMPLE_UNLESS_PANIC
                and self._no_other_panic(threads, tidx)
            ):
                if stats is not None:
                    stats.por_ample_hits += 1
                return tidx
        return None
