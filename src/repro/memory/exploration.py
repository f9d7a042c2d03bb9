"""Exhaustive state-space exploration of kernel programs under a model.

The explorer drives :mod:`repro.memory.semantics` to a fixpoint with a
depth-first search over all scheduler interleavings, read choices, walker
choices, oracle draws, and promise certificates, deduplicating identical
machine states.  Spin loops terminate the search naturally: spinning
without observing a new message revisits an identical state.

Engine-level reductions keep the search tractable at corpus scale, all
behavior-preserving and all checked against an unreduced reference
search by the ``reduction`` conformance oracle
(:mod:`repro.conformance.oracles`):

* **Partial-order reduction** (:mod:`repro.memory.por`): a thread at a
  local step (``Label``/``Nop``/``Mov``/forward ``Jump`` or branch) is
  scheduled alone on every program outside TSO, subject to a cycle
  proviso and a panic gate.  ``REPRO_POR=0`` disables the reduction;
  the ``por`` oracle checks both ways agree.
* **Await-loop pruning** (:func:`thread_steps`): the taken back-edge of
  a pure await loop (:meth:`~repro.memory.semantics.ProgramCache.
  await_backedges`, e.g. a ticket-lock spin) is dropped, so a failed
  spin iteration never becomes a state of its own; the thread waits at
  the loop head instead.
* **Doomed-state pruning** (:func:`_drop_doomed`): under Arm, successors
  in which a thread holds a promise no reachable store can fulfil are
  dropped.
* **Canonical state interning** (:class:`repro.memory.state.StateInterner`):
  the visited set stores compact hash-consed keys instead of deep nested
  tuples, so duplicate detection costs O(changed components) per
  successor rather than O(whole state).  Keys are equal exactly when
  the states are, so ``states_explored`` counts distinct non-doomed
  states (up to the permutations below).
* **Thread-symmetry reduction** (:func:`_symmetric_key`): threads that
  run identical code (:meth:`~repro.memory.semantics.ProgramCache.
  symmetry_groups`, e.g. gen_vmid's CPUs) are interchangeable, so the
  visited set keys a state up to a permutation within each group, and
  every valid terminal state adds its behavior under each such
  permutation.  Exact because the pruned step relation commutes with
  the permutation and POR keeps every behavior reachable from each
  state, so a skipped state ``π(s)`` reaches exactly ``π`` of what
  ``s`` reaches.  Off wherever something reads a thread id
  (:func:`_symmetry_applies`): monitors, ``keep_terminal_states``,
  push/pull and ownership, an MMU, VM features.

The result records whether the exploration was *complete* — no path was
cut by the memory-growth or state-count budget — which the verification
checkers require before claiming a condition holds.

Verification checkers observe the search through **streaming monitors**
(:class:`~repro.memory.datatypes.ExplorationMonitor`): each valid
terminal state is delivered to every attached monitor as it is popped,
a monitor may ``stop()`` once it has a verdict, and when all monitors
have stopped the search is cut (``stopped_early`` — distinct from budget
incompleteness).  This replaces ``keep_terminal_states`` buffering on
the verification hot path and lets counterexample searches exit at the
first violation instead of exhausting the state space.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import config
from repro.errors import ExplorationBudgetExceeded
from repro.ir.program import Program
from repro.memory.datatypes import (
    Behavior,
    EngineStats,
    ExplorationMonitor,
    ExplorationResult,
    Message,
    latest_write_ts,
    value_at,
)
from repro.memory import mutants
from repro.memory.por import PORPlan, por_worthwhile
from repro.obs import metrics, tracer
from repro.memory.semantics import (
    CertMemo,
    ModelConfig,
    ProgramCache,
    execute_instruction,
    promise_steps,
    resolve_model,
    resolve_vm_features,
    tso_flush_steps,
)
from repro.memory.state import (
    ExecState,
    StateInterner,
    initial_state,
    interning_enabled,
    tget,
)


def por_default_enabled() -> bool:
    """Partial-order reduction is on unless ``REPRO_POR=0``."""
    return config.get("por")


def behavior_of(
    cache: ProgramCache,
    state: ExecState,
    observe_locs: Sequence[int],
) -> Behavior:
    """Project a terminal machine state onto its observable behavior."""
    registers: List[Tuple[int, str, int]] = []
    for tidx, thread in enumerate(cache.threads):
        ctx = state.threads[tidx]
        for reg in thread.observed:
            registers.append((thread.tid, reg, tget(ctx.regs, reg, None)))
    memory: List[Tuple[int, int]] = []
    for loc in observe_locs:
        ts = latest_write_ts(state.memory, loc)
        memory.append((loc, value_at(state.memory, loc, ts, cache.init_value(loc))))
    return Behavior(
        registers=tuple(registers),
        memory=tuple(memory),
        faults=tuple(sorted(state.faults)),
        panic=state.panic,
    )


def _is_terminal(state: ExecState) -> bool:
    # A TSO execution is only over once every store buffer has drained
    # (``wbuf`` is always empty outside the TSO model).
    return state.panic is not None or all(
        t.halted and not t.wbuf for t in state.threads
    )


def _successors(
    cache: ProgramCache,
    state: ExecState,
    cfg: ModelConfig,
    memo: CertMemo,
    plan,
    awaits,
    stats: EngineStats,
    sink,
) -> List[ExecState]:
    """Expand one non-terminal state: the full scheduler/promise fan-out,
    or the single ample thread when the POR plan offers one.  *awaits*
    is the exploration's await-loop table (see :func:`thread_steps`)."""
    successors: Optional[List[ExecState]] = None
    if plan is not None:
        ample = plan.ample_thread(state, stats=stats)
        if ample is not None:
            if sink is not None:
                sink.emit(tracer.POR_AMPLE, thread=ample)
            # Never an await back-edge: the cycle proviso keeps backward
            # branches out of the ample set.
            successors = execute_instruction(cache, state, ample, cfg)
            if not successors:
                successors = None  # blocked: fall back to full expansion
    if successors is None:
        successors = []
        threads = state.threads
        relaxed = cfg.relaxed
        tso = cfg.tso
        for tidx in range(len(threads)):
            if tso and threads[tidx].wbuf:
                # The internal flush step — generated before the halted
                # fast path, since a halted thread's leftover buffered
                # writes must still drain into memory.
                successors.extend(tso_flush_steps(cache, state, tidx, cfg))
            if threads[tidx].halted:
                continue  # fast path: no steps, no promises
            successors.extend(
                thread_steps(cache, state, tidx, cfg, awaits, stats)
            )
            if relaxed:
                successors.extend(promise_steps(cache, state, tidx, cfg, memo))
    if cfg.relaxed and not cfg.pushpull and successors:
        successors = _drop_doomed(cache.doomed_tables(), successors, stats)
    stats.successors_generated += len(successors)
    return successors


def thread_steps(
    cache: ProgramCache,
    state: ExecState,
    tidx: int,
    cfg: ModelConfig,
    awaits: Optional[Tuple[Dict[int, int], ...]],
    stats: Optional[EngineStats] = None,
) -> List[ExecState]:
    """Thread *tidx*'s instruction steps, minus the taken back-edge of a
    pure await loop (*awaits* is
    :meth:`~repro.memory.semantics.ProgramCache.await_backedges`).

    A failed iteration of such a loop changes only registers the next
    iteration overwrites and the thread's views, and views only restrict
    what the thread may later read, how low its stores may land and
    which promises it can certify.  So every execution with failed
    iterations has a counterpart in which the thread waits at the loop
    head instead, reaching the same behavior; dropping the back-edge
    keeps the behavior set exact.  A thread whose only step was dropped
    is blocked: its state has no successor, like a spin that revisits
    itself.  Each drop counts in ``stats.await_pruned``.
    """
    steps = execute_instruction(cache, state, tidx, cfg)
    if awaits is not None and steps:
        head = awaits[tidx].get(state.threads[tidx].pc)
        if head is not None and steps[0].threads[tidx].pc == head:
            if stats is not None:
                stats.await_pruned += 1
            return []
    return steps


def _drop_doomed(
    tables: Tuple, successors: List[ExecState], stats: EngineStats
) -> List[ExecState]:
    """Drop the successors that can never reach a valid terminal state.

    A successor is *doomed* when some thread holds promises at a pc from
    which no fulfilling store is reachable
    (:meth:`~repro.memory.semantics.ProgramCache.fulfillable_from`) and
    no non-halted thread can still reach a ``Panic``.  Sound because
    only :func:`~repro.memory.semantics._exec_store`'s fulfil branch
    removes a promise, so such a thread keeps its promises in every
    descendant, and a normal terminal state with promises is invalid;
    only a panic could make the subtree observable.  Outside push/pull
    every panic comes from a ``Panic`` instruction: every other
    ``_panic_state`` call site is a push/pull ownership check
    (``_ownership_check``, ``_exec_pull``, ``_exec_push``), hence the
    ``not pushpull`` gate at the caller.  The check is two table
    lookups per promise-holding thread.
    """
    holders, stuck, panicky = tables
    if not holders:
        return successors
    kept: List[ExecState] = []
    for succ in successors:
        threads = succ.threads
        for tidx in holders:
            ctx = threads[tidx]
            if ctx.promises and (ctx.halted or stuck[tidx][ctx.pc]):
                break
        else:
            kept.append(succ)
            continue
        if panicky is not None and any(
            not ctx.halted and panicky[tidx][ctx.pc]
            for tidx, ctx in enumerate(threads)
        ):
            kept.append(succ)
            continue
        stats.doomed_pruned += 1
    return kept


def _same(state: ExecState) -> ExecState:
    return state


def _symmetry_applies(
    program: Program,
    cfg: ModelConfig,
    keep_terminal_states: bool,
    monitors: Optional[Sequence[ExplorationMonitor]],
) -> bool:
    """May the explorer identify states up to a permutation of identical
    threads?  Not where anything reads a thread id: monitors and kept
    terminal states see whole states, push/pull ownership and its panic
    text name CPUs, and the TLB and walk-cache keys (any MMU program,
    any VM feature) carry the CPU's tid."""
    return not (
        keep_terminal_states or monitors or cfg.pushpull
        or cfg.initial_ownership or cfg.owned_access_required
        or cfg.vm_features or program.mmu is not None
    )


def _orbit(
    groups: Tuple[Tuple[int, ...], ...], n_threads: int
) -> List[Tuple[int, ...]]:
    """Every non-identity permutation within *groups*, as a thread-index
    tuple: slot ``j`` of the permuted state holds thread ``order[j]``."""
    orders = [tuple(range(n_threads))]
    for group in groups:
        extended = []
        for order in orders:
            for image in permutations(group):
                permuted = list(order)
                for slot, tidx in zip(group, image):
                    permuted[slot] = tidx
                extended.append(tuple(permuted))
        orders = extended
    return orders[1:]  # permutations() yields the identity first


def _symmetric_key(
    groups: Tuple[Tuple[int, ...], ...],
    tids: Tuple[int, ...],
    interner: Optional[StateInterner],
):
    """The visited-set key up to a permutation of identical threads.

    Within each group the thread contexts are sorted, and the timeline's
    message ``tid``s are renamed to follow their threads to their new
    slots; the interner code of a renamed timeline is memoized per
    (timeline code, permutation).  Equal keys mean one state is a
    permutation of the other.  Sorting may tie between equal contexts
    and pick either order, which can only leave two states of one orbit
    apart, never merge two orbits.
    """
    n_threads = len(tids)
    sorted_groups = [list(group) for group in groups]
    remaps: Dict[Tuple[int, ...], Dict[int, int]] = {}
    renamed_codes: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    base_key = interner.key if interner is not None else _same

    def renamed(memory, order):
        remap = remaps.get(order)
        if remap is None:
            remap = remaps[order] = {
                tids[tidx]: tids[slot] for slot, tidx in enumerate(order)
            }
        return tuple(
            Message(ts, loc, val, remap[tid], promised)
            for ts, loc, val, tid, promised in memory
        )

    def key(state: ExecState) -> Tuple:
        threads = state.threads
        order = None
        for group in sorted_groups:
            ranked = sorted(group, key=threads.__getitem__)
            if ranked != group:
                if order is None:
                    order = list(range(n_threads))
                for slot, tidx in zip(group, ranked):
                    order[slot] = tidx
        if order is None:
            return base_key(state)
        order = tuple(order)
        memory = state.memory
        if interner is None:
            timeline = renamed(memory, order)
        else:
            code = interner.timeline_code(memory)
            timeline = renamed_codes.get((code, order))
            if timeline is None:
                timeline = renamed_codes[(code, order)] = (
                    interner.timeline_code(renamed(memory, order))
                )
        return (timeline, tuple(threads[i] for i in order)) + state[2:]

    return key


def _is_valid_terminal(state: ExecState) -> bool:
    """Panic states are always observable; normal termination requires all
    promises fulfilled (an unfulfillable promise is not an execution)."""
    if state.panic is not None:
        return True
    return not any(t.promises for t in state.threads)


def explore(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    keep_terminal_states: bool = False,
    por: Optional[bool] = None,
    monitors: Optional[Sequence[ExplorationMonitor]] = None,
    monitor_cut: bool = True,
) -> ExplorationResult:
    """Enumerate every observable behavior of *program* under *cfg*.

    ``observe_locs`` selects the shared locations whose final values are
    part of the behavior; it defaults to all locations with declared
    initial values.  ``keep_terminal_states`` retains the full terminal
    machine states (message timelines included) — a debugging aid; the
    streaming alternative is ``monitors``, a sequence of
    :class:`~repro.memory.datatypes.ExplorationMonitor` objects that
    receive every valid terminal state as it is reached and may cut the
    search early once all of them have their verdict (the result is then
    marked ``stopped_early``; ``complete`` is untouched).
    ``monitor_cut=False`` keeps delivering the full search even after
    every monitor has stopped — the legacy exhaustive behavior the
    ``fuse`` oracle and benchmark compare against; a stopped
    monitor's counters freeze at its stop point either way, so verdicts
    are bit-identical in both modes.
    ``por`` overrides the partial-order-reduction default (``REPRO_POR``);
    the reduction is exact, so behavior sets are identical either way.
    """
    cfg = resolve_model(resolve_vm_features(cfg))
    if por is None:
        por = por_default_enabled()
    cache = ProgramCache(program)
    if observe_locs is None:
        observe_locs = sorted(cache.initial_memory)
    start = initial_state(len(program.threads), cfg.initial_ownership)

    behaviors: Set[Behavior] = set()
    terminal_states: List[ExecState] = []
    stats = EngineStats()

    # Hoisted once per exploration: the no-op path pays one module-attribute
    # load here and a single local ``is None`` test per loop iteration.
    sink = tracer.SINK
    span_id = None
    if sink is not None:
        span_id = sink.begin_span(
            "explore", program=program.name, relaxed=cfg.relaxed, por=por,
        )

    plan = None
    if por:
        if por_worthwhile(program, cfg):
            plan = PORPlan(cache, cfg)
            if not plan.useful:
                plan = None
        else:
            stats.por_gate_skips += 1

    awaits = cache.await_backedges(cfg.pushpull)

    active: List[ExplorationMonitor] = [
        m for m in (monitors or ()) if not m.stopped
    ]
    stats.fused_conditions = max(0, len(active) - 1)
    stopped_early = False
    # Without interning (the benchmark baseline) whole states are hashed.
    interner = StateInterner() if interning_enabled() else None
    state_key = interner.key if interner is not None else _same
    orbit: List[Tuple[int, ...]] = []
    groups = ()
    if _symmetry_applies(program, cfg, keep_terminal_states, monitors):
        groups = cache.symmetry_groups()
    if groups:
        stats.symmetric_threads = sum(len(group) for group in groups)
        state_key = _symmetric_key(
            groups, tuple(t.tid for t in program.threads), interner
        )
        # Seeded bug: keep the reduced search but forget that each
        # terminal state stands for its whole orbit.
        if not mutants.enabled("symmetry-skips-orbit"):
            orbit = _orbit(groups, len(program.threads))
    # One certification memo — and one interner — for the whole run: the
    # outer DFS and every nested certification search share them.
    memo = CertMemo(interner=interner, stats=stats)
    visited = {state_key(start)}
    stack: List[ExecState] = [start]
    states_explored = 0
    cut_paths = 0
    complete = True

    while stack:
        if states_explored >= cfg.max_states:
            complete = False
            break
        state = stack.pop()
        states_explored += 1

        if _is_terminal(state):
            if _is_valid_terminal(state):
                behaviors.add(behavior_of(cache, state, observe_locs))
                threads = state.threads
                for order in orbit:
                    permuted = tuple(threads[i] for i in order)
                    behaviors.add(behavior_of(
                        cache, state._replace(threads=permuted), observe_locs,
                    ))
                if keep_terminal_states:
                    terminal_states.append(state)
                if active:
                    still_watching: List[ExplorationMonitor] = []
                    for monitor in active:
                        monitor.observe(state, states_explored)
                        if monitor.stopped:
                            stats.monitor_stops += 1
                            if sink is not None:
                                sink.emit(
                                    tracer.MONITOR_STOP,
                                    monitor=type(monitor).__name__,
                                    states=states_explored,
                                )
                        else:
                            still_watching.append(monitor)
                    active = still_watching
                    if not active and monitor_cut:
                        # Every monitor has its verdict: a chosen early
                        # exit, not a budget cut.
                        stopped_early = True
                        break
            continue

        successors = _successors(
            cache, state, cfg, memo, plan, awaits, stats, sink
        )

        if not successors:
            # Deadlock: some thread blocked forever (e.g. an RMW stuck
            # behind an unfulfillable promise).  Not a valid execution.
            cut_paths += 1
            continue

        for succ in successors:
            if len(succ.memory) > cfg.max_memory:
                cut_paths += 1
                complete = False
                continue
            key = state_key(succ)
            if key not in visited:
                visited.add(key)
                stack.append(succ)

    if interner is not None:
        stats.interner_timelines = len(interner)
    if stats.cert_budget_hits:
        # A budget-cut certification may have wrongly rejected a promise:
        # the behavior set could be an under-approximation, and an
        # incomplete certification must not masquerade as a smaller
        # behavior set.
        complete = False

    if sink is not None:
        sink.end_span(
            span_id, "explore", program=program.name,
            states=states_explored, behaviors=len(behaviors),
            complete=complete, stopped_early=stopped_early,
        )
    if metrics.ENABLED:
        metrics.absorb_engine_stats(stats)
        reg = metrics.REGISTRY
        reg.counter("explore.states_explored").inc(states_explored)
        reg.counter("explore.cut_paths").inc(cut_paths)
        reg.histogram("explore.behaviors").observe(len(behaviors))
        reg.histogram("explore.states").observe(states_explored)

    return ExplorationResult(
        behaviors=frozenset(behaviors),
        complete=complete,
        states_explored=states_explored,
        cut_paths=cut_paths,
        terminal_states=tuple(terminal_states),
        stats=stats,
        stopped_early=stopped_early,
    )


def explore_or_raise(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    keep_terminal_states: bool = False,
    por: Optional[bool] = None,
    monitors: Optional[Sequence[ExplorationMonitor]] = None,
    monitor_cut: bool = True,
) -> ExplorationResult:
    """Like :func:`explore` but refuses incomplete explorations.

    Forwards the full :func:`explore` signature, so monitored (fused)
    passes can use the raising wrapper too.  A monitor-cut search
    (``stopped_early``) is *not* incomplete — the monitors chose to
    stop — and passes through without raising.
    """
    result = explore(
        program, cfg, observe_locs, keep_terminal_states, por, monitors,
        monitor_cut,
    )
    if not result.complete:
        stats = result.stats
        cert_note = ""
        if stats is not None and stats.cert_budget_hits:
            cert_note = (
                f"; {stats.cert_budget_hits} certification searches hit "
                f"cert_max_states={cfg.cert_max_states}, so the behavior "
                f"set may be an under-approximation"
            )
        raise ExplorationBudgetExceeded(
            f"exploration of {program.name!r} exceeded its budget "
            f"({result.states_explored} states, {result.cut_paths} cut paths"
            f"{cert_note})"
        )
    return result
