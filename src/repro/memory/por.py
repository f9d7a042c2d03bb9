"""Independence-based partial-order reduction for the explorer.

The DFS in :mod:`repro.memory.exploration` enumerates every scheduler
interleaving.  Most of those interleavings are redundant: steps of
different threads that touch disjoint locations *commute exactly* — the
machine state after ``a;b`` equals the state after ``b;a`` — so exploring
one order is enough.  This module implements an ample-set (sleep-set
style) reduction built on two commutation facts of the single-timeline
Promising model:

1. **Local steps commute with everything.**  ``Label``/``Nop``/``Mov``/
   ``Jump``/conditional branches read and write only the acting thread's
   context.  They never append to the timeline, can never be disabled,
   and are deterministic, so a thread whose next instruction is local can
   be scheduled *exclusively* without losing any state — on any program.
   Two exceptions, read from a per-``(tidx, pc)`` table built once per
   exploration: a backward ``Jump`` or branch is never ample (the cycle
   proviso: a loop of local steps must not starve the other threads),
   and a ``Mov`` into an observed register is ample only while no other
   thread can panic, since a panic reached before it would freeze the
   old value.  Under TSO the pass is off.

2. **Reads of quiescent locations commute with everything.**  A plain
   ``Load`` of a location that no *other* thread can ever write again
   (and whose own thread performs no further stores, so it has no
   promise steps to defer) has a read-candidate set that is unaffected
   by every other thread's steps, and it affects only its own context.
   Scheduling the loading thread exclusively preserves the exact set of
   reachable terminal states.

Both facts are *state-level* commutations (not merely behavioral), so
the reduced search reaches the same terminal behaviors.

Soundness gate
--------------

Fact 2 breaks in the presence of global side channels: panics freeze
the whole machine, barriers and acquire/release accesses couple thread
views to global timestamps, RMWs both read and write, page-table stores
and TLB invalidations feed the walker floor, and push/pull transfers
ownership between threads.  :func:`por_eligible` therefore admits to
pass 2 only programs built from plain loads, plain stores, and local
control flow, run without the push/pull discipline.  The ``por``
conformance oracle (:mod:`repro.conformance.oracles`) runs both
searches and asserts the behavior sets coincide; the ``reduction``
oracle compares with a reference search that reduces nothing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ir.expr import Imm
from repro.ir.instructions import (
    BranchIfNonZero,
    BranchIfZero,
    Jump,
    Label,
    Load,
    Mov,
    Nop,
    Store,
)
from repro.ir.program import Thread
from repro.memory import mutants

#: Instructions that read and write only the acting thread's context.
LOCAL_INSTRS = (Label, Nop, Mov, Jump, BranchIfZero, BranchIfNonZero)

#: The only instructions a POR-eligible program may contain.
_SAFE_INSTRS = LOCAL_INSTRS + (Load, Store)

#: Sentinel for "may write any location" (register-dependent address).
TOP = None

Footprint = Optional[FrozenSet[int]]  # frozenset of locations, or TOP


#: Below this many total instructions, a non-relaxed exploration is so
#: small that building the :class:`PORPlan` (footprint fixpoints) and
#: running the per-state ample checks cost more than the interleavings
#: they prune — the litmus corpus measured a net 0.98x "speedup" with
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
    if mutants.enabled("skip-por-gate"):  # seeded bug class
        return True
    if cfg.relaxed:
        return True
    total = sum(len(t.instrs) for t in program.threads)
    return total >= POR_GATE_MIN_INSTRS


def por_eligible(program, cfg) -> bool:
    """May *program* under *cfg* be explored with the reduction?

    Falls back (returns False) whenever barriers, acquire/release
    accesses, RMWs, exclusives, push/pull ownership transfers,
    page-table stores, TLB invalidations, virtual accesses, oracle
    reads, or explicit panics are in play — the cases where steps stop
    commuting exactly.
    """
    if mutants.enabled("skip-por-gate"):  # seeded bug class
        return True
    if cfg.pushpull or cfg.owned_access_required:
        return False
    if cfg.tso:
        # Store buffers break the commutation facts: a plain store no
        # longer appends to the timeline (it mutates only its own
        # context), but its later *flush* races every other thread's
        # reads, so neither fact covers it.
        return False
    for thread in program.threads:
        for instr in thread.instrs:
            if not isinstance(instr, _SAFE_INSTRS):
                return False
            if isinstance(instr, Load) and instr.acquire:
                return False
            if isinstance(instr, Store) and (
                instr.release or instr.pt_kind is not None
            ):
                return False
    return True


def _instr_successors(thread: Thread, labels: Dict[str, int], pc: int) -> List[int]:
    """Control-flow successors of the instruction at *pc* (may fall off
    the end of the thread, which means halt)."""
    instr = thread.instrs[pc]
    if isinstance(instr, Jump):
        return [labels[instr.target]]
    if isinstance(instr, (BranchIfZero, BranchIfNonZero)):
        return [labels[instr.target], pc + 1]
    return [pc + 1]


def _store_footprints(thread: Thread, labels: Dict[str, int]) -> List[Footprint]:
    """Per-pc may-write sets: the locations any store reachable from
    ``pc`` (inclusive) can target.  ``TOP`` when some reachable store has
    a register-dependent address.  Index ``len(instrs)`` is the halted
    suffix (writes nothing)."""
    n = len(thread.instrs)
    own: List[Footprint] = []
    for instr in thread.instrs:
        if isinstance(instr, Store):
            if isinstance(instr.addr, Imm):
                own.append(frozenset((instr.addr.value,)))
            else:
                own.append(TOP)
        else:
            own.append(frozenset())
    reach: List[Footprint] = own[:] + [frozenset()]
    changed = True
    while changed:
        changed = False
        for pc in range(n - 1, -1, -1):
            acc = reach[pc]
            for succ in _instr_successors(thread, labels, pc):
                nxt = reach[min(succ, n)]
                if acc is TOP:
                    break
                if nxt is TOP:
                    acc = TOP
                elif not (nxt <= acc):
                    acc = acc | nxt
            if acc != reach[pc]:
                reach[pc] = acc
                changed = True
    return reach


#: :attr:`PORPlan.local` codes, one per ``(tidx, pc)``.
NOT_AMPLE, AMPLE, AMPLE_UNLESS_PANIC = 0, 1, 2


def _local_codes(cache, tidx: int, cfg) -> Tuple[int, ...]:
    """Pass-1 table of thread *tidx*: may its step at each pc (the
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
    """Per-exploration reduction plan.

    Pass 1 (a thread at a local step runs alone) applies to every
    program outside TSO through the per-``(tidx, pc)`` table ``local``
    (None under TSO, or when no pc of any thread qualifies); pass 2
    (quiescent loads) only to :func:`por_eligible` programs, through the
    precomputed store ``footprints``.  ``useful`` is False when neither
    pass can ever fire, so the explorer can drop the plan.
    """

    __slots__ = ("eligible", "footprints", "local", "panicky", "_thread_lens")

    def __init__(self, cache, cfg):
        self.eligible = por_eligible(cache.program, cfg)
        self.footprints: List[List[Footprint]] = []
        self._thread_lens: List[int] = [
            len(thread.instrs) for thread in cache.threads
        ]
        if self.eligible:
            for tidx, thread in enumerate(cache.threads):
                self.footprints.append(
                    _store_footprints(thread, cache.labels[tidx])
                )
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
        return self.eligible or self.local is not None

    def _may_write(self, tidx: int, pc: int, loc: int) -> bool:
        fp = self.footprints[tidx][min(pc, self._thread_lens[tidx])]
        return fp is TOP or loc in fp

    def _no_other_panic(self, threads, tidx: int) -> bool:
        panicky = self.panicky
        return not any(
            not ctx.halted and panicky[other][ctx.pc]
            for other, ctx in enumerate(threads) if other != tidx
        )

    def ample_thread(self, cache, state, stats=None) -> Optional[int]:
        """A thread index safe to schedule exclusively at *state*, or
        ``None`` when the full successor expansion is required.

        Selection is deterministic (lowest-index eligible thread, local
        steps first) so explorations stay reproducible.  When the caller
        passes the exploration's :class:`~repro.memory.datatypes.
        EngineStats`, every ample selection bumps ``por_ample_hits``.
        """
        threads = state.threads
        # Pass 1: a thread at a local (context-only) step.
        local = self.local
        if local is not None:
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
        if not self.eligible:
            return None
        # Pass 2: a thread loading a location no other thread can still
        # write, with no stores (hence no promise steps) of its own left.
        for tidx, ctx in enumerate(threads):
            if ctx.halted or ctx.pc >= self._thread_lens[tidx]:
                continue
            instr = cache.instr_at(tidx, ctx.pc)
            if not isinstance(instr, Load):
                continue
            own = self.footprints[tidx][ctx.pc]
            if own is TOP or own:
                continue
            try:
                loc = instr.addr.eval(dict(ctx.regs))
            except Exception:
                continue
            if any(
                self._may_write(other, threads[other].pc, loc)
                for other in range(len(threads))
                if other != tidx and not threads[other].halted
            ):
                continue
            if stats is not None:
                stats.por_ample_hits += 1
            return tidx
        return None
