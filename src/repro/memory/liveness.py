"""Live-field projection of Promising Arm states for duplicate detection.

Two Arm states often differ only in a view or register that no
instruction the thread can still reach will ever read: a load keeps
raising ``vro`` with no barrier left to consume it, or writes a
register nothing reads again.  Such states have identical futures, yet
an exact visited set keeps both and repeats all the work below them,
nested certification searches included.

The outer exploration therefore keys its visited set on a *projection*
of each state that zeroes or drops every context field no reachable
instruction can read.  The states themselves — and the representative
the DFS keeps and expands — stay exact; only the key is projected.

Projection rules, per (thread, pc), over the instructions reachable from
``pc`` (inclusive):

* ``vrn`` is live if a ``Load`` is reachable, ``vwn`` if a ``Store`` is.
* ``vctrl`` is live if a ``Store`` or an ``ISB`` is reachable.
* ``vro`` is live if ``DMB SY``, ``DMB LD`` or a release store is
  reachable; ``vwo`` if ``DMB SY``, ``DMB ST`` or a release store is.
* ``coh[loc]`` is live if an access to ``loc`` is reachable; all of
  ``coh`` is kept when a reachable access has a non-immediate address.
* ``regs[r]`` and ``rv[r]`` follow backward liveness (the destination of
  a ``Load``, ``Mov`` or ``FetchAndInc`` kills).  The *values* of the
  thread's observed registers are always live, since
  :func:`~repro.memory.exploration.behavior_of` reads them from every
  thread of a terminal state; their views are not.
* A halted thread keeps only ``pc``, ``halted``, ``promises``,
  ``monitor``, ``wbuf`` and its observed register values.

Soundness: every step reads only live fields of its thread, and a field
live after a step was either live before it (reachability only shrinks
along a path) or freshly written from live inputs, so states with equal
projections step to states with equal projections and end in the same
behaviors.  Other threads' contexts are never read under the eligible
configurations, which is why the projection applies only to relaxed
runs with no TSO buffers, no push/pull (``_exec_pull`` reads the owner
thread's ``coh``) and no VM features, and only to threads built from the
instructions in :data:`PROJECTABLE_INSTRS`.  Every other thread keeps its
exact context.  The one step that is not a function of the projection
alone is the promise-candidate lookahead, whose bounded search
deduplicates without regard to depth; it runs on the exact
representative, and the pinned behavior corpora are unchanged.

Projecting costs a few microseconds per successor, so threads whose
projection could merge nothing (:func:`determined_threads`) keep their
exact contexts too; a program made only of such threads is keyed
exactly, at no cost.  Skipping a thread only ever refines the key.
"""

from __future__ import annotations

from itertools import compress
from operator import is_, is_not
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.ir.expr import Imm
from repro.ir.instructions import (
    Barrier,
    BarrierKind,
    BranchIfNonZero,
    BranchIfZero,
    FetchAndInc,
    Jump,
    Label,
    Load,
    Mov,
    Nop,
    Panic,
    Store,
)
from repro.ir.program import Thread
from repro.memory.semantics import ModelConfig, ProgramCache
from repro.memory.state import ExecState, StateInterner, ThreadCtx

#: The only instructions a projected thread may contain.
PROJECTABLE_INSTRS = (
    Load, Store, FetchAndInc, Mov, Barrier, BranchIfZero, BranchIfNonZero,
    Jump, Label, Nop, Panic,
)


class LiveFields(NamedTuple):
    """The context fields some instruction reachable from one pc reads."""

    vrn: bool
    vwn: bool
    vro: bool
    vwo: bool
    vctrl: bool
    coh: Optional[FrozenSet[int]]  # live locations; None keeps every entry
    regs: FrozenSet[str]           # live register values, observed included
    rv: FrozenSet[str]             # live register views


def projection_applies(cfg: ModelConfig) -> bool:
    """Is *cfg* a configuration the projection is sound for?"""
    return (
        cfg.relaxed and not cfg.tso and not cfg.pushpull
        and not cfg.vm_features
    )


def thread_projectable(thread: Thread) -> bool:
    """Does *thread* consist only of :data:`PROJECTABLE_INSTRS`?"""
    return all(isinstance(i, PROJECTABLE_INSTRS) for i in thread.instrs)


_CONTROL = (Jump, BranchIfZero, BranchIfNonZero)


def determined_threads(cache: ProgramCache) -> FrozenSet[int]:
    """Threads whose dead fields follow from their kept ones.

    Projecting such a thread merges nothing: every context field is a
    function of its pc, its observed register values and the timeline,
    all of which the key keeps.  A thread qualifies when it

    * has no branch or jump, so its pc fixes which instructions ran;
    * writes each register once (``Load``, ``Mov`` destinations), and
      only observed ones, so every value it read stays in the key;
    * reads, through immediate addresses, only locations whose messages
      carry pairwise distinct values (the initial one included), so the
      value read names the message, and with it every view and
      coherence entry the read raised.

    A location has such messages when every write to it is a plain or
    release ``Store`` of an immediate to an immediate address, in a
    thread without branches, and a plain one is its thread's last
    instruction — otherwise a thread could store the value again after
    promising it, leaving two messages with one value.  A program with a
    thread outside :data:`PROJECTABLE_INSTRS` or a store through a
    register address gets no determined threads.
    """
    threads = cache.threads
    if not all(map(thread_projectable, threads)):
        return frozenset()
    straight = [
        not any(isinstance(i, _CONTROL) for i in t.instrs) for t in threads
    ]
    values: Dict[int, Optional[List[int]]] = {}  # None: not distinct
    for tidx, thread in enumerate(threads):
        last = len(thread.instrs) - 1
        for pc, instr in enumerate(thread.instrs):
            if isinstance(instr, FetchAndInc):
                if not isinstance(instr.addr, Imm):
                    return frozenset()
                values[instr.addr.value] = None
            elif isinstance(instr, Store):
                if not isinstance(instr.addr, Imm):
                    return frozenset()
                loc = instr.addr.value
                once = straight[tidx] and (instr.release or pc == last)
                seen = values.setdefault(loc, [cache.init_value(loc)])
                if seen is not None and once and isinstance(instr.value, Imm):
                    seen.append(instr.value.value)
                else:
                    values[loc] = None
    distinct = {
        loc for loc, vals in values.items()
        if vals is not None and len(set(vals)) == len(vals)
    }

    def determined(tidx: int) -> bool:
        thread = threads[tidx]
        written: List[str] = []
        for instr in thread.instrs:
            if isinstance(instr, FetchAndInc):
                return False
            if isinstance(instr, (Load, Mov)):
                written.append(instr.dst)
            if isinstance(instr, Load):
                addr = instr.addr
                if not isinstance(addr, Imm):
                    return False
                if addr.value in values and addr.value not in distinct:
                    return False
        return (
            straight[tidx]
            and len(set(written)) == len(written)
            and set(written) <= set(thread.observed)
        )

    return frozenset(t for t in range(len(threads)) if determined(t))


def _reads(instr) -> Set[str]:
    """The views one instruction reads."""
    if isinstance(instr, Load):
        return {"vrn"}
    if isinstance(instr, Store):
        if instr.release:
            return {"vwn", "vctrl", "vro", "vwo"}
        return {"vwn", "vctrl"}
    if isinstance(instr, Barrier):
        return {
            BarrierKind.FULL: {"vro", "vwo"},
            BarrierKind.LD: {"vro"},
            BarrierKind.ST: {"vwo"},
            BarrierKind.ISB: {"vctrl"},
        }[instr.kind]
    return set()


def _uses_kills(instr):
    """(registers read, register written or None) of one instruction."""
    if isinstance(instr, (Load, FetchAndInc)):
        return instr.addr.registers(), instr.dst
    if isinstance(instr, Store):
        return instr.addr.registers() | instr.value.registers(), None
    if isinstance(instr, Mov):
        return instr.src.registers(), instr.dst
    if isinstance(instr, (BranchIfZero, BranchIfNonZero)):
        return instr.cond.registers(), None
    return frozenset(), None


def live_table(cache: ProgramCache, tidx: int) -> List[LiveFields]:
    """Per-pc :class:`LiveFields` of one projectable thread.

    Index ``len(instrs)`` is the halted entry: nothing but the observed
    register values is live there.
    """
    thread = cache.threads[tidx]
    instrs = thread.instrs
    n = len(instrs)
    succs = cache.control_successors(tidx)
    observed = frozenset(thread.observed)

    views: List[Set[str]] = [_reads(i) for i in instrs] + [set()]
    # Accessed locations; None once a register-dependent address shows.
    locs: List[Optional[Set[int]]] = []
    for instr in instrs:
        if isinstance(instr, (Load, Store, FetchAndInc)):
            addr = instr.addr
            locs.append({addr.value} if isinstance(addr, Imm) else None)
        else:
            locs.append(set())
    locs.append(set())
    uses_kills = [_uses_kills(i) for i in instrs]
    regs: List[Set[str]] = [set(uses) for uses, _ in uses_kills] + [set()]

    # One reverse sweep settles a thread without backward branches; a
    # loop needs sweeps until nothing changes.
    loops = any(s <= pc for pc, out in enumerate(succs) for s in out)
    changed = True
    while changed:
        changed = False
        for pc in range(n - 1, -1, -1):
            kill = uses_kills[pc][1]
            for s in succs[pc]:
                if not views[s] <= views[pc]:
                    views[pc] |= views[s]
                    changed = loops
                if locs[pc] is not None:
                    if locs[s] is None:
                        locs[pc] = None
                        changed = loops
                    elif not locs[s] <= locs[pc]:
                        locs[pc] |= locs[s]
                        changed = loops
                flow = regs[s] - {kill} if kill is not None else regs[s]
                if not flow <= regs[pc]:
                    regs[pc] |= flow
                    changed = loops

    return [
        LiveFields(
            "vrn" in v, "vwn" in v, "vro" in v, "vwo" in v, "vctrl" in v,
            frozenset(c) if c is not None else None,
            frozenset(r) | observed,
            frozenset(r),
        )
        for v, c, r in zip(views, locs, regs)
    ]


def _dead_plan(
    live: LiveFields,
    held_regs: FrozenSet[str],
    held_locs: Optional[FrozenSet[int]],
) -> Optional[Tuple]:
    """What projection must drop or zero at one pc, or None if nothing.

    *held_regs* are the registers the thread can ever hold (its
    destinations) and *held_locs* the locations its coherence map can
    ever hold (None when some address is register-dependent); a map
    whose entries are all live is never filtered.  Each filtered map
    carries its own cache from source pairs to kept pairs (``None``
    when nothing was dropped): register files and coherence maps recur
    by value far more often than contexts do.
    """
    regs = live.regs if held_regs - live.regs else None
    rv = live.rv if held_regs - live.rv else None
    coh = live.coh
    if coh is not None and held_locs is not None and not held_locs - coh:
        coh = None
    zero = (
        not live.vrn, not live.vwn, not live.vro, not live.vwo,
        not live.vctrl,
    )
    if regs is None and rv is None and coh is None and not any(zero):
        return None
    return regs, {}, rv, {}, coh, {}, zero


_MISS = object()
_new_tuple = tuple.__new__


def _project_ctx(ctx: ThreadCtx, plan: Tuple) -> ThreadCtx:
    """*ctx* with the dead fields of *plan* dropped or zeroed — *ctx*
    itself when none of them is set, so identity sharing (and the memos
    keyed on it) survives the projection."""
    keep_regs, regs_cache, keep_rv, rv_cache, keep_coh, coh_cache, zero = plan
    (pc, halted, regs, rv, coh, vrn, vwn, vro, vwo, vctrl, promises,
     monitor, wbuf) = ctx
    changed = False
    if keep_regs is not None:
        kept = regs_cache.get(regs, _MISS)
        if kept is _MISS:
            kept = tuple(p for p in regs if p[0] in keep_regs)
            kept = regs_cache[regs] = None if len(kept) == len(regs) else kept
        if kept is not None:
            regs = kept
            changed = True
    if keep_rv is not None:
        kept = rv_cache.get(rv, _MISS)
        if kept is _MISS:
            kept = tuple(p for p in rv if p[0] in keep_rv)
            kept = rv_cache[rv] = None if len(kept) == len(rv) else kept
        if kept is not None:
            rv = kept
            changed = True
    if keep_coh is not None:
        kept = coh_cache.get(coh, _MISS)
        if kept is _MISS:
            kept = tuple(p for p in coh if p[0] in keep_coh)
            kept = coh_cache[coh] = None if len(kept) == len(coh) else kept
        if kept is not None:
            coh = kept
            changed = True
    zvrn, zvwn, zvro, zvwo, zvctrl = zero
    if zvrn and vrn:
        vrn = 0
        changed = True
    if zvwn and vwn:
        vwn = 0
        changed = True
    if zvro and vro:
        vro = 0
        changed = True
    if zvwo and vwo:
        vwo = 0
        changed = True
    if zvctrl and vctrl:
        vctrl = 0
        changed = True
    if not changed:
        return ctx
    # ``tuple.__new__`` skips the named tuple's Python-level ``__new__``.
    return _new_tuple(ThreadCtx, (
        pc, halted, regs, rv, coh, vrn, vwn, vro, vwo, vctrl, promises,
        monitor, wbuf,
    ))


def _thread_plans(cache: ProgramCache, tidx: int) -> List[Optional[Tuple]]:
    """:func:`_dead_plan` for every pc of one projectable thread."""
    instrs = cache.threads[tidx].instrs
    held_regs = frozenset(
        i.dst for i in instrs if isinstance(i, (Load, Mov, FetchAndInc))
    )
    accesses = [i for i in instrs if isinstance(i, (Load, Store, FetchAndInc))]
    held_locs = None
    if all(isinstance(i.addr, Imm) for i in accesses):
        held_locs = frozenset(i.addr.value for i in accesses)
    return [
        _dead_plan(live, held_regs, held_locs)
        for live in live_table(cache, tidx)
    ]


#: Contexts a :class:`LiveProjection` remembers per thread slot before
#: it starts over: enough to span the expansion of one state.
_RECENT = 64


class LiveProjection:
    """The projection of one exploration, callable on states.

    The outer DFS keys every successor of one state before it pops the
    next, and a successor shares all but (usually) one context with its
    parent and its siblings.  So the projection keeps the last thread
    tuple it saw with its projection, and revisits only the slots whose
    context changed since (found by a C-level identity scan).  A changed
    slot looks its context up among the last few dozen it projected —
    the parent's contexts hit there when the siblings switch threads —
    and the slot forgets them all at once when full, so a context that
    turned out to be a duplicate is not kept alive for the rest of the
    exploration.  Each entry holds its context, so an ``id`` cannot be
    recycled while it is remembered.
    """

    __slots__ = ("_plans", "_lens", "_recent", "_slots", "_last_in",
                 "_last_out")

    def __init__(self, cache: ProgramCache) -> None:
        n = len(cache.threads)
        # Per-pc plans of each projectable thread; None for the others
        # and for determined threads, which keep their exact contexts.
        skip = determined_threads(cache)
        self._plans: List[Optional[List[Optional[Tuple]]]] = [
            _thread_plans(cache, tidx)
            if thread_projectable(thread) and tidx not in skip else None
            for tidx, thread in enumerate(cache.threads)
        ]
        self._lens = [cache.thread_len(tidx) for tidx in range(n)]
        self._recent: List[dict] = [{} for _ in range(n)]
        self._slots = range(n)
        # No context is None, so the first call projects every slot.
        self._last_in: Tuple = (None,) * n
        self._last_out: Tuple = (None,) * n

    def __bool__(self) -> bool:
        return any(plans is not None for plans in self._plans)

    def threads(self, threads: Tuple[ThreadCtx, ...]) -> Tuple[ThreadCtx, ...]:
        """The projected contexts of one state's thread tuple."""
        out = None
        for tidx in compress(self._slots, map(is_not, threads, self._last_in)):
            ctx = threads[tidx]
            plans = self._plans[tidx]
            if plans is None:
                p = ctx
            else:
                recent = self._recent[tidx]
                entry = recent.get(id(ctx))
                if entry is None:
                    pc = ctx.pc
                    last = self._lens[tidx]
                    plan = plans[pc if pc < last else last]
                    p = ctx if plan is None else _project_ctx(ctx, plan)
                    if len(recent) >= _RECENT:
                        recent.clear()
                    recent[id(ctx)] = (ctx, p)
                else:
                    p = entry[1]
            if out is None:
                out = list(self._last_out)
            out[tidx] = p
        if out is not None:
            self._last_in = threads
            self._last_out = tuple(out)
        return self._last_out

    def __call__(self, state: ExecState) -> ExecState:
        threads = self.threads(state.threads)
        if all(map(is_, threads, state.threads)):
            return state
        # ``tuple.__new__`` skips the named tuple's Python-level ``__new__``.
        return _new_tuple(ExecState, (state.memory, threads) + state[2:])


def _same(state: ExecState) -> ExecState:
    return state


def state_projection(
    cache: ProgramCache, cfg: ModelConfig
) -> Callable[[ExecState], ExecState]:
    """The projection for one exploration: a :class:`LiveProjection`, or
    the identity when the configuration or every thread is ineligible."""
    if projection_applies(cfg):
        projection = LiveProjection(cache)
        if projection:
            return projection
    return _same


def visited_key(
    project: Callable[[ExecState], ExecState],
    interner: Optional[StateInterner],
) -> Callable[[ExecState], object]:
    """The outer DFS's visited-set key: the interner key of the
    projected state, or the projected state itself without interning.

    The one key function every outer deduplication site uses, so they
    always agree on which states are duplicates.
    """
    if interner is None:
        return project
    key = interner.key
    if project is _same:
        return key
    threads = project.threads
    return lambda s: key(s, threads(s.threads))
