"""Intra-exploration parallelism: work-stealing frontier shards.

Corpus-level :func:`repro.parallel.parallel_map` cannot help the shape
that actually dominates wall time — one big exploration (a promise-heavy
spec, a fused wDRF pass).  This module splits a *single* DFS across
worker processes:

1. **Seed phase** (parent): run the exact serial algorithm until the
   frontier is wide enough to split, recording every visited state in
   the shared filter.  Because the seed *is* the serial loop, a seed
   that drains the frontier (or hits the state budget) yields the
   bit-identical serial result with zero fork cost.
2. **Shards**: the seeded frontier is dealt round-robin to ``fork``-ed
   workers.  Each runs the same DFS over its slice, deduplicating
   through a :class:`SharedVisitedFilter`, and offloads the bottom of
   its stack (near-root subtrees) to a steal queue whenever some other
   worker is idle.
3. **Merge** (parent): behaviors union, per-state counters sum.

Bit-identity with the serial engine is the contract (which is why the
exploration-cache keys do not mention sharding at all):

* With push-time dedup, a *complete* exploration visits every reachable
  state exactly once in any order, so behaviors, ``states_explored``,
  ``cut_paths`` (deadlocks are per-state; memory cuts per-edge, and
  every edge is generated exactly once), and ``complete`` are
  order-independent — the merge is exact, not approximate.
* Monitored runs additionally depend on serial *visit order*
  (``ExplorationMonitor.stop()`` cuts the search early).  Workers
  therefore record the successor graph, and the parent **replays** the
  serial DFS order over the merged graph through the real monitor
  objects — reconstructing the same ``stopped_early`` report, the same
  ``states_explored`` prefix, and the same monitor counters the serial
  engine would produce.  Workers feed fork-copies of the monitors only
  speculatively, to abort the fan-out early when a cut is likely.
* Every order-dependent case the merge cannot reconstruct — the state
  budget ran out mid-fan-out, a speculative monitor stop, a worker
  crash, a replay gap, a saturated filter stripe — falls back to one
  serial :func:`~repro.memory.exploration._explore` call.  Slow path,
  never a wrong path.

The only observable differences are memo-locality ``EngineStats``
(``certify_memo_hits``, ``candidate_memo_hits``, ``interner_timelines``):
each worker owns its :class:`~repro.memory.semantics.CertMemo`, so
cross-subtree memo hits the serial run enjoys become misses.  Verdicts
are unaffected (the memo is a pure cache), and ``cert_budget_hits`` is
memo-invariant by design, so ``complete`` still merges exactly.

Interner codes are **not** shipped across processes, although the issue
that motivated this module suggested it: a
:class:`~repro.memory.state.StateInterner` code is "the order this
process first saw the timeline" — meaningless in any other process.
The shared filter keys on 128-bit content fingerprints
(:func:`~repro.memory.state.state_fingerprint`) instead — genuine
``blake2b`` digests of the state's canonical serialization, identical
in every process.  Like the serial engine's keys, they are taken over
the live-field projection of each state (:mod:`repro.memory.liveness`),
so both engines agree on which states are duplicates.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from queue import Empty
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.program import Program
from repro.memory.datatypes import (
    Behavior,
    EngineStats,
    ExplorationMonitor,
    ExplorationResult,
)
from repro.memory.liveness import state_projection, visited_key
from repro.memory.por import PORPlan, por_worthwhile
from repro.memory.semantics import CertMemo, ModelConfig, ProgramCache
from repro.memory.state import (
    ExecState,
    FingerprintMemo,
    StateInterner,
    initial_state,
    interning_enabled,
    state_fingerprint,
)
from repro.memory.exploration import (
    _explore,
    _is_terminal,
    _is_valid_terminal,
    _successors,
    behavior_of,
)
from repro.obs import metrics, tracer
from repro.parallel.pool import resolve_shard_jobs

__all__ = [
    "SharedVisitedFilter",
    "maybe_shard_explore",
    "shard_explore",
]


def _shard_timeout() -> float:
    """Optional wall-clock deadline for the fan-out
    (``REPRO_SHARD_TIMEOUT`` seconds; default 0 = no deadline).

    Dead workers are detected by liveness polling, but a worker that is
    alive yet wedged (stuck in native code, never reporting) would
    otherwise leave the parent draining the results queue forever.
    With a deadline set, expiry aborts the shards, gives them one crash
    grace window to report, then terminates the stragglers and falls
    back to the serial engine.  Off by default: a deadline short enough
    to catch hangs on small specs would kill legitimate long runs.
    """
    try:
        return max(0.0, float(os.environ.get("REPRO_SHARD_TIMEOUT", "0")))
    except ValueError:
        return 0.0


#: Steal granularity: batched stealing amortizes queue/pickle overhead
#: against the dominant per-state cost — promise certification — which
#: makes even small batches of promise-heavy states worth shipping.
_STEAL_BATCH = 8

#: Visited-filter capacity in 16-byte slots: 16 MiB ≈ 1M slots, ~6x the
#: largest tracked run.
_FILTER_SLOTS = (16 * 1024 * 1024) // 16

#: Name of the most recently created filter segment — a test seam for
#: asserting the segment was unlinked (re-attach must fail).
_LAST_FILTER_NAME: Optional[str] = None

_BUDGET_CHUNK = 256          # states reserved from the shared budget at once
_CRASH_GRACE_SECONDS = 5.0   # drain window after detecting a dead worker
_JOIN_TIMEOUT = 5.0          # per-process join wait before terminating
_SEED_TARGET_MIN = 16        # minimum frontier width before splitting
_SEED_TARGET_PER_SHARD = 4   # ... and per requested shard

# Successor-graph node kinds (monitored runs record the graph so the
# parent can replay serial DFS order through the real monitors).
_INTERIOR = 0
_TERMINAL_VALID = 1
_TERMINAL_INVALID = 2
_DEADLOCK = 3

_MASK64 = (1 << 64) - 1


class SharedVisitedFilter:
    """A cross-process open-addressing set of 128-bit fingerprints.

    One :mod:`multiprocessing.shared_memory` segment of 16-byte slots
    (two little-endian ``uint64``); the all-zero slot is the empty
    marker (fingerprints are never 0).  The table is divided into
    :data:`STRIPES` contiguous stripes, each guarded by its own lock,
    so concurrent :meth:`add` calls only contend when they hash into
    the same stripe.  Probing wraps *within* the stripe and gives up
    after :data:`PROBE_LIMIT` slots.

    The protocol is **conservative-miss, never false-hit**: a full
    probe window reports "new" (the caller explores the state, possibly
    again) rather than dropping a state.  A false hit is a soundness
    bug — a dropped subtree; a conservative miss is duplicated work the
    orchestrator detects via :attr:`full_misses` and repairs with a
    serial fallback, keeping results exact even under saturation.

    Lifecycle: the *parent* creates and (in ``finally``) closes +
    unlinks the segment.  ``fork``-ed workers inherit the mapped object
    and never close it — the OS reclaims their mappings at exit, and
    only the creating process ever unlinks, so crashes cannot leak
    segments past the orchestrator's ``finally``.

    :attr:`hits`/:attr:`full_misses` are process-local counters; shard
    workers ship theirs back in their result message.
    """

    STRIPES = 32
    PROBE_LIMIT = 64

    def __init__(self, nslots: Optional[int] = None, ctx=None) -> None:
        if ctx is None:
            ctx = multiprocessing.get_context("fork")
        if nslots is None:
            nslots = _FILTER_SLOTS
        # Round up so every stripe has the same whole number of slots.
        stripes = self.STRIPES
        nslots = ((max(nslots, stripes) + stripes - 1) // stripes) * stripes
        self.nslots = nslots
        self.span = nslots // stripes
        self._shm = shared_memory.SharedMemory(create=True, size=nslots * 16)
        self.name = self._shm.name
        self._view = memoryview(self._shm.buf).cast("Q")
        self._locks = [ctx.Lock() for _ in range(stripes)]
        self.hits = 0
        self.full_misses = 0
        global _LAST_FILTER_NAME
        _LAST_FILTER_NAME = self.name

    def add(self, fp: int) -> bool:
        """Claim *fp*: ``True`` if it was new (caller explores the
        state), ``False`` if already present.  Full stripe window:
        conservative ``True`` + :attr:`full_misses` bump."""
        hi = (fp >> 64) & _MASK64
        lo = fp & _MASK64
        span = self.span
        base_idx = fp % self.nslots
        stripe = base_idx // span
        stripe_base = stripe * span
        offset = base_idx - stripe_base
        view = self._view
        probes = min(self.PROBE_LIMIT, span)
        with self._locks[stripe]:
            for i in range(probes):
                slot = (stripe_base + (offset + i) % span) * 2
                s_hi = view[slot]
                s_lo = view[slot + 1]
                if s_hi == 0 and s_lo == 0:
                    view[slot] = hi
                    view[slot + 1] = lo
                    return True
                if s_hi == hi and s_lo == lo:
                    self.hits += 1
                    return False
        self.full_misses += 1
        return True

    def close(self) -> None:
        """Release the mapping and unlink the segment (parent only)."""
        self._view.release()
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


@dataclass
class _WorkerOutput:
    """One shard worker's contribution, shipped over the results queue."""

    behaviors: Set[Behavior]
    states_explored: int
    cut_paths: int
    mem_complete: bool
    stats: EngineStats
    graph: Optional[Dict[int, Tuple]]
    steals: List[int] = field(default_factory=list)
    filter_hits: int = 0
    full_misses: int = 0
    speculative_stop: bool = False


class _SharedState:
    """The coordination block every worker shares (fork-inherited)."""

    def __init__(self, ctx, n_workers: int, budget_left: int) -> None:
        self.n_workers = n_workers
        self.budget = ctx.Value("q", budget_left)          # own lock
        self.steal_q = ctx.Queue()
        self.queued = ctx.Value("q", 0, lock=False)        # counts_lock
        self.idle = ctx.Value("i", 0, lock=False)          # counts_lock
        self.counts_lock = ctx.Lock()
        self.done = ctx.Event()
        self.abort = ctx.Event()


def _reserve(shared: _SharedState) -> int:
    """Take up to :data:`_BUDGET_CHUNK` states from the global budget."""
    with shared.budget.get_lock():
        take = min(_BUDGET_CHUNK, shared.budget.value)
        if take > 0:
            shared.budget.value -= take
        return max(take, 0)


def _refund(shared: _SharedState, leftover: int) -> None:
    if leftover > 0:
        with shared.budget.get_lock():
            shared.budget.value += leftover


def _acquire_work(shared: _SharedState):
    """Park as idle until a stolen batch, global completion, or abort.

    Termination protocol: ``queued`` counts batches *committed* to the
    steal queue (incremented under ``counts_lock`` **before** the
    ``put``, so a batch is never invisible to this check while riding
    the queue's feeder thread).  The run is done exactly when every
    worker is idle and no batch is committed — checked and latched
    under the same lock.
    """
    with shared.counts_lock:
        shared.idle.value += 1
        if shared.idle.value == shared.n_workers and shared.queued.value == 0:
            shared.done.set()
    while True:
        if shared.done.is_set() or shared.abort.is_set():
            return None
        try:
            batch = shared.steal_q.get(timeout=0.02)
        except Empty:
            continue
        with shared.counts_lock:
            shared.queued.value -= 1
            shared.idle.value -= 1
        return batch


def _worker_main(
    wid, cache, cfg, observe_locs, plan, frontier, vfilter, shared,
    spec_monitors, monitor_cut, record_graph, results_q,
) -> None:
    """Process entry point: run the body, always report, never hang."""
    # The fork-inherited heap (program cache, seed frontier, interned
    # timelines) is permanent for this worker's lifetime; freezing it
    # keeps every cyclic-GC pass from re-traversing it — and from
    # dirtying copy-on-write pages — while the worker's own allocations
    # (states, memo pins) remain collectable as usual.  The raised
    # thresholds then make young-generation passes ~70x rarer: the DFS
    # allocates immutable bottom-up tuples that cannot form cycles, so
    # frequent cycle hunts find nothing yet re-traverse the growing
    # memo/interner pins every time (measured ~20% of worker wall).
    # Collection stays enabled — monitors may allocate cyclic garbage —
    # and the process exit reclaims everything regardless.
    gc.freeze()
    gc.set_threshold(50_000, 25, 25)
    try:
        out = _worker_body(
            wid, cache, cfg, observe_locs, plan, frontier, vfilter,
            shared, spec_monitors, monitor_cut, record_graph,
        )
        results_q.put((wid, out, None))
    except BaseException as exc:  # noqa: BLE001 — must reach the parent
        shared.abort.set()
        try:
            results_q.put((wid, None, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        # The steal queue may still hold batches nobody will consume;
        # don't let its feeder thread block interpreter exit.
        shared.steal_q.cancel_join_thread()


def _worker_body(
    wid, cache, cfg, observe_locs, plan, frontier, vfilter, shared,
    spec_monitors, monitor_cut, record_graph,
) -> _WorkerOutput:
    """One shard's DFS: same expansion as the serial loop
    (:func:`~repro.memory.exploration._successors`), dedup through the
    shared filter, stack bottoms offloaded to idle peers."""
    stats = EngineStats()
    interner = StateInterner() if interning_enabled() else None
    memo = CertMemo(interner=interner, stats=stats)
    fp_memo = FingerprintMemo()
    project = state_projection(cache, cfg)
    sink = tracer.SINK
    steal_batch = _STEAL_BATCH
    # The fork-inherited filter object carries the parent's process-local
    # counters from the seed phase; report deltas from this baseline so
    # the parent's aggregation doesn't double-count the seed once per
    # worker (which would also trip the filter-saturated fallback early).
    hits_base = vfilter.hits
    full_misses_base = vfilter.full_misses

    behaviors: Set[Behavior] = set()
    graph: Optional[Dict[int, Tuple]] = {} if record_graph else None
    active = list(spec_monitors or ())
    stack: List[Tuple[int, ExecState]] = list(frontier)
    # Local dedup: graph-recording runs key on fingerprints (every
    # successor is fingerprinted for the graph anyway); unmonitored
    # runs key on interner keys, so only locally-new states pay the
    # fingerprint cost of consulting the shared filter.  Both, like the
    # serial engine, see the live-field projection of each state.
    if record_graph:
        local_seen: Set = {fp for fp, _ in stack}
    else:
        state_key = visited_key(project, interner)
        local_seen = {state_key(s) for _, s in stack}
    steals: List[int] = []
    states_explored = 0
    cut_paths = 0
    mem_complete = True
    speculative_stop = False
    local_allow = 0

    while True:
        if shared.abort.is_set():
            break
        if not stack:
            _refund(shared, local_allow)
            local_allow = 0
            batch = _acquire_work(shared)
            if batch is None:
                break
            stack = list(batch)
            continue
        if len(stack) > 2 * steal_batch and shared.idle.value > 0:
            give, stack = stack[:steal_batch], stack[steal_batch:]
            with shared.counts_lock:
                shared.queued.value += 1
            shared.steal_q.put(give)
            steals.append(len(give))
            if sink is not None:
                sink.emit(tracer.SHARD_STEAL, worker=wid, batch=len(give))
        if local_allow == 0:
            local_allow = _reserve(shared)
            if local_allow == 0:
                # Budget exhausted with work remaining: the merge cannot
                # reconstruct serial's budget-cut prefix — abort, parent
                # falls back to one serial run.
                shared.abort.set()
                break
        fp, state = stack.pop()
        local_allow -= 1
        states_explored += 1

        if _is_terminal(state):
            if _is_valid_terminal(state):
                if graph is not None:
                    graph[fp] = (_TERMINAL_VALID, (), 0, 0, state)
                else:
                    behaviors.add(behavior_of(cache, state, observe_locs))
                if active:
                    for monitor in active:
                        monitor.observe(state, states_explored)
                    active = [m for m in active if not m.stopped]
                    if not active and monitor_cut:
                        speculative_stop = True
                        shared.abort.set()
                        break
            elif graph is not None:
                graph[fp] = (_TERMINAL_INVALID, (), 0, 0, None)
            continue

        cert_before = stats.cert_budget_hits
        successors = _successors(cache, state, cfg, memo, plan, stats, sink)
        cert_delta = stats.cert_budget_hits - cert_before

        if not successors:
            cut_paths += 1
            if graph is not None:
                graph[fp] = (_DEADLOCK, (), 0, cert_delta, None)
            continue

        kept: List[int] = []
        n_mem = 0
        for succ in successors:
            if len(succ.memory) > cfg.max_memory:
                cut_paths += 1
                n_mem += 1
                mem_complete = False
                continue
            if graph is not None:
                sfp = state_fingerprint(project(succ), fp_memo)
                kept.append(sfp)
                if sfp in local_seen:
                    continue
                if vfilter.add(sfp):
                    local_seen.add(sfp)
                    stack.append((sfp, succ))
                elif sink is not None:
                    sink.emit(tracer.VISITED_FILTER_HIT, worker=wid)
            else:
                key = state_key(succ)
                if key in local_seen:
                    continue
                local_seen.add(key)
                sfp = state_fingerprint(project(succ), fp_memo)
                if vfilter.add(sfp):
                    stack.append((sfp, succ))
                elif sink is not None:
                    sink.emit(tracer.VISITED_FILTER_HIT, worker=wid)
        if graph is not None:
            graph[fp] = (_INTERIOR, tuple(kept), n_mem, cert_delta, None)

    _refund(shared, local_allow)
    if interner is not None:
        stats.interner_timelines = len(interner)
    return _WorkerOutput(
        behaviors=behaviors,
        states_explored=states_explored,
        cut_paths=cut_paths,
        mem_complete=mem_complete,
        stats=stats,
        graph=graph,
        steals=steals,
        filter_hits=vfilter.hits - hits_base,
        full_misses=vfilter.full_misses - full_misses_base,
        speculative_stop=speculative_stop,
    )


@dataclass
class _SeedResult:
    """What the parent's serial seed phase produced."""

    behaviors: Set[Behavior]
    states_explored: int
    cut_paths: int
    mem_complete: bool
    frontier: List[Tuple[int, ExecState]]
    graph: Optional[Dict[int, Tuple]]
    finished: bool      # frontier drained or budget hit: no fan-out needed
    budget_cut: bool


def _seed_phase(
    program, cache, cfg, observe_locs, plan, stats, interner, memo,
    vfilter, target, record_graph, sink,
) -> Tuple[_SeedResult, int]:
    """Run the exact serial DFS until the frontier is *target* wide.

    This is the serial loop of :func:`~repro.memory.exploration._explore`
    verbatim (same LIFO order, same interner-key dedup, same budget
    check), so a seed that finishes — drained frontier or budget cut —
    already *is* the serial result.  Every state it pushes is also
    claimed in the shared filter so shard workers never re-explore the
    seeded prefix.
    """
    start = initial_state(len(program.threads), cfg.initial_ownership)
    fp_memo = FingerprintMemo()
    project = state_projection(cache, cfg)
    start_fp = state_fingerprint(project(start), fp_memo)
    state_key = visited_key(project, interner)
    visited = {state_key(start)}
    vfilter.add(start_fp)
    stack: List[Tuple[int, ExecState]] = [(start_fp, start)]
    behaviors: Set[Behavior] = set()
    graph: Optional[Dict[int, Tuple]] = {} if record_graph else None
    states_explored = 0
    cut_paths = 0
    mem_complete = True
    budget_cut = False

    while stack and len(stack) < target:
        if states_explored >= cfg.max_states:
            budget_cut = True
            break
        fp, state = stack.pop()
        states_explored += 1

        if _is_terminal(state):
            if _is_valid_terminal(state):
                if graph is not None:
                    graph[fp] = (_TERMINAL_VALID, (), 0, 0, state)
                else:
                    behaviors.add(behavior_of(cache, state, observe_locs))
            elif graph is not None:
                graph[fp] = (_TERMINAL_INVALID, (), 0, 0, None)
            continue

        cert_before = stats.cert_budget_hits
        successors = _successors(cache, state, cfg, memo, plan, stats, sink)
        cert_delta = stats.cert_budget_hits - cert_before

        if not successors:
            cut_paths += 1
            if graph is not None:
                graph[fp] = (_DEADLOCK, (), 0, cert_delta, None)
            continue

        kept: List[int] = []
        n_mem = 0
        for succ in successors:
            if len(succ.memory) > cfg.max_memory:
                cut_paths += 1
                n_mem += 1
                mem_complete = False
                continue
            key = state_key(succ)
            if graph is not None:
                sfp = state_fingerprint(project(succ), fp_memo)
                kept.append(sfp)
            elif key in visited:
                continue
            else:
                sfp = state_fingerprint(project(succ), fp_memo)
            if key not in visited:
                visited.add(key)
                vfilter.add(sfp)
                stack.append((sfp, succ))
        if graph is not None:
            graph[fp] = (_INTERIOR, tuple(kept), n_mem, cert_delta, None)

    seed = _SeedResult(
        behaviors=behaviors,
        states_explored=states_explored,
        cut_paths=cut_paths,
        mem_complete=mem_complete,
        frontier=stack,
        graph=graph,
        finished=budget_cut or not stack,
        budget_cut=budget_cut,
    )
    return seed, start_fp


class _ReplayIncomplete(Exception):
    """The merged successor graph misses a node the serial order needs."""


def _replay(
    cache, cfg, observe_locs, graph, start_fp, monitors, monitor_cut,
    merged_stats, sink,
) -> Tuple[Set[Behavior], bool, int, int, bool]:
    """Walk the merged successor graph in serial DFS order, feeding the
    *real* monitors.

    The graph maps fingerprints to deterministic per-state records
    (kind, successor fingerprints in generation order, memory-cut and
    cert-budget deltas), so this walk reproduces exactly what the
    serial engine would have seen: same visit order, same
    ``ExplorationMonitor.stop()`` point, same ``states_explored``
    prefix, same behaviors-up-to-cut, same ``complete`` flag (memory
    and cert-budget deltas are summed over the replayed prefix only).
    The walk's correctness does not depend on *why* the graph exists —
    a partial graph from an aborted fan-out replays fine as long as
    every node the serial order touches is present; a gap raises
    :class:`_ReplayIncomplete` and the caller falls back to the serial
    engine.
    """
    active = [m for m in (monitors or ()) if not m.stopped]
    visited = {start_fp}
    stack = [start_fp]
    behaviors: Set[Behavior] = set()
    states_explored = 0
    cut_paths = 0
    complete = True
    stopped_early = False
    cert_total = 0

    while stack:
        if states_explored >= cfg.max_states:
            complete = False
            break
        fp = stack.pop()
        states_explored += 1
        node = graph.get(fp)
        if node is None:
            raise _ReplayIncomplete(hex(fp))
        kind, succs, n_mem, cert_delta, payload = node
        cert_total += cert_delta

        if kind == _TERMINAL_VALID:
            behaviors.add(behavior_of(cache, payload, observe_locs))
            if active:
                still_watching = []
                for monitor in active:
                    monitor.observe(payload, states_explored)
                    if monitor.stopped:
                        merged_stats.monitor_stops += 1
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
                    stopped_early = True
                    break
            continue
        if kind == _TERMINAL_INVALID:
            continue
        if kind == _DEADLOCK:
            cut_paths += 1
            continue
        if n_mem:
            cut_paths += n_mem
            complete = False
        for sfp in succs:
            if sfp not in visited:
                visited.add(sfp)
                stack.append(sfp)

    if cert_total:
        complete = False
    return behaviors, complete, states_explored, cut_paths, stopped_early


def _collect(procs, results_q, shared, jobs):
    """Drain worker results; detect hard-dead workers (no result, no
    exception message) and abort the rest instead of hanging.

    Two failure clocks: liveness polling catches workers that *died*
    without reporting, and the optional :func:`_shard_timeout` deadline
    catches workers that are alive but wedged.  Either one aborts the
    shards, then allows a :data:`_CRASH_GRACE_SECONDS` drain window for
    the survivors' results before giving up on the stragglers (the
    caller terminates them and runs the serial fallback)."""
    outputs: Dict[int, _WorkerOutput] = {}
    errors: List[str] = []
    pending = set(range(jobs))
    timeout = _shard_timeout()
    overall_deadline = time.monotonic() + timeout if timeout else None
    timed_out = False
    grace_deadline = None
    while pending:
        now = time.monotonic()
        if grace_deadline is not None and now > grace_deadline:
            why = (
                f"timed out after {timeout:g}s"
                if timed_out else "died without reporting"
            )
            for wid in sorted(pending):
                errors.append(f"worker {wid} {why}")
            break
        if overall_deadline is not None and now > overall_deadline:
            timed_out = True
            overall_deadline = None
            shared.abort.set()
            if grace_deadline is None:
                grace_deadline = now + _CRASH_GRACE_SECONDS
        try:
            wid, out, err = results_q.get(timeout=0.1)
        except Empty:
            if grace_deadline is None and any(
                not procs[w].is_alive() for w in pending
            ):
                shared.abort.set()
                grace_deadline = time.monotonic() + _CRASH_GRACE_SECONDS
            continue
        if err is not None:
            errors.append(f"worker {wid}: {err}")
        elif out is not None:
            outputs[wid] = out
        pending.discard(wid)
    return outputs, errors


def shard_explore(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    por: bool = True,
    monitors: Optional[Sequence[ExplorationMonitor]] = None,
    monitor_cut: bool = True,
    jobs: int = 2,
) -> ExplorationResult:
    """One exploration, fanned out over *jobs* work-stealing shards.

    Returns the bit-identical result (behaviors, ``complete``,
    ``states_explored``, ``cut_paths``, ``stopped_early``, monitor
    outcomes) the serial engine would produce — by exact merge, by
    serial-order replay, or, for the order-dependent corner cases, by
    actually running the serial engine (see the module docstring).
    """
    ctx = multiprocessing.get_context("fork")
    cache = ProgramCache(program)
    if observe_locs is None:
        observe_locs = sorted(cache.initial_memory)
    else:
        observe_locs = list(observe_locs)

    stats = EngineStats()
    sink = tracer.SINK
    span_id = None
    if sink is not None:
        span_id = sink.begin_span(
            "shard_explore", program=program.name, relaxed=cfg.relaxed,
            por=por, shards=jobs,
        )

    plan = None
    if por:
        if por_worthwhile(program, cfg):
            plan = PORPlan(cache, cfg)
            if not plan.eligible:
                plan = None
        else:
            stats.por_gate_skips += 1

    active = [m for m in (monitors or ()) if not m.stopped]
    stats.fused_conditions = max(0, len(active) - 1)
    record_graph = bool(active)
    interner = StateInterner() if interning_enabled() else None
    memo = CertMemo(interner=interner, stats=stats)

    def finish(result: ExplorationResult, outcome: str) -> ExplorationResult:
        if sink is not None:
            sink.end_span(
                span_id, "shard_explore", program=program.name,
                outcome=outcome, states=result.states_explored,
                behaviors=len(result.behaviors), complete=result.complete,
                stopped_early=result.stopped_early,
            )
        return result

    def fallback(reason: str) -> ExplorationResult:
        if metrics.ENABLED:
            metrics.REGISTRY.counter("shard.fallbacks").inc()
        result = _explore(
            program, cfg, observe_locs, False, por, monitors, monitor_cut,
        )
        return finish(result, f"serial-fallback:{reason}")

    def emit_merged_metrics(result: ExplorationResult, merged: EngineStats,
                            steals: int, filter_hits: int) -> None:
        # Mirrors the serial engine's tail so dashboards see one
        # exploration either way, plus the shard-only counters.
        if not metrics.ENABLED:
            return
        metrics.absorb_engine_stats(merged)
        reg = metrics.REGISTRY
        reg.counter("explore.states_explored").inc(result.states_explored)
        reg.counter("explore.cut_paths").inc(result.cut_paths)
        reg.histogram("explore.behaviors").observe(len(result.behaviors))
        reg.histogram("explore.states").observe(result.states_explored)
        reg.counter("shard.explorations").inc()
        reg.counter("shard.steals").inc(steals)
        reg.counter("shard.filter_hits").inc(filter_hits)
        reg.gauge("shard.workers").set(jobs)

    target = max(_SEED_TARGET_MIN, jobs * _SEED_TARGET_PER_SHARD)
    vfilter = SharedVisitedFilter(ctx=ctx)
    try:
        seed, start_fp = _seed_phase(
            program, cache, cfg, observe_locs, plan, stats, interner,
            memo, vfilter, target, record_graph, sink,
        )
        if interner is not None:
            stats.interner_timelines = len(interner)

        if seed.finished:
            # The seed is the serial loop, so this already *is* the
            # serial result (budget cuts included) — no fan-out ran.
            if record_graph:
                behaviors, complete, states, cuts, stopped = _replay(
                    cache, cfg, observe_locs, seed.graph, start_fp,
                    monitors, monitor_cut, stats, sink,
                )
            else:
                behaviors = seed.behaviors
                states = seed.states_explored
                cuts = seed.cut_paths
                stopped = False
                complete = (
                    not seed.budget_cut
                    and seed.mem_complete
                    and stats.cert_budget_hits == 0
                )
            result = ExplorationResult(
                behaviors=frozenset(behaviors),
                complete=complete,
                states_explored=states,
                cut_paths=cuts,
                terminal_states=(),
                stats=stats,
                stopped_early=stopped,
            )
            emit_merged_metrics(result, stats, 0, vfilter.hits)
            return finish(result, "seed-only")

        shards = [seed.frontier[i::jobs] for i in range(jobs)]
        budget_left = max(cfg.max_states - seed.states_explored, 0)
        shared = _SharedState(ctx, jobs, budget_left)
        results_q = ctx.Queue()
        procs = []
        for wid in range(jobs):
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    wid, cache, cfg, observe_locs, plan, shards[wid],
                    vfilter, shared, active if record_graph else None,
                    monitor_cut, record_graph, results_q,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)

        outputs, errors = _collect(procs, results_q, shared, jobs)
        for proc in procs:
            proc.join(timeout=_JOIN_TIMEOUT)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_TIMEOUT)
        shared.steal_q.cancel_join_thread()
        shared.steal_q.close()
        results_q.close()

        if errors or len(outputs) < jobs:
            return fallback("worker-failure")

        merged = stats
        for out in outputs.values():
            merged.add(out.stats)
        total_steals = sum(len(out.steals) for out in outputs.values())
        total_hits = vfilter.hits + sum(
            out.filter_hits for out in outputs.values()
        )
        total_full_misses = vfilter.full_misses + sum(
            out.full_misses for out in outputs.values()
        )
        if sink is not None:
            for wid in sorted(outputs):
                for batch_len in outputs[wid].steals:
                    sink.emit(tracer.SHARD_STEAL, worker=wid,
                              batch=batch_len)
            sink.emit(tracer.VISITED_FILTER_HIT, hits=total_hits,
                      full_misses=total_full_misses, aggregate=True)

        if record_graph:
            # Serial-order replay through the real monitors; sound for
            # partial graphs too (abort paths) — a gap falls back.  An
            # abandoned replay has already delivered a callback prefix,
            # so the monitors must be rewound before the serial engine
            # feeds them from scratch (double delivery would inflate
            # their counters).
            graph = dict(seed.graph)
            for out in outputs.values():
                graph.update(out.graph)
            pre_replay = [m.snapshot() for m in (monitors or ())]
            try:
                behaviors, complete, states, cuts, stopped = _replay(
                    cache, cfg, observe_locs, graph, start_fp,
                    monitors, monitor_cut, merged, sink,
                )
            except _ReplayIncomplete:
                for monitor, snap in zip(monitors or (), pre_replay):
                    monitor.restore(snap)
                return fallback("replay-gap")
            result = ExplorationResult(
                behaviors=frozenset(behaviors),
                complete=complete,
                states_explored=states,
                cut_paths=cuts,
                terminal_states=(),
                stats=merged,
                stopped_early=stopped,
            )
            emit_merged_metrics(result, merged, total_steals, total_hits)
            return finish(result, "sharded-replay")

        # Unmonitored: the merge is exact only for complete, duplicate-
        # free explorations — anything order-dependent reruns serially.
        if shared.abort.is_set():
            return fallback("budget-exhausted")
        if total_full_misses:
            return fallback("filter-saturated")
        behaviors = set(seed.behaviors)
        states = seed.states_explored
        cuts = seed.cut_paths
        mem_complete = seed.mem_complete
        for out in outputs.values():
            behaviors |= out.behaviors
            states += out.states_explored
            cuts += out.cut_paths
            mem_complete = mem_complete and out.mem_complete
        result = ExplorationResult(
            behaviors=frozenset(behaviors),
            complete=mem_complete and merged.cert_budget_hits == 0,
            states_explored=states,
            cut_paths=cuts,
            terminal_states=(),
            stats=merged,
            stopped_early=False,
        )
        emit_merged_metrics(result, merged, total_steals, total_hits)
        return finish(result, "sharded")
    finally:
        vfilter.close()


def maybe_shard_explore(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]],
    por: bool,
    monitors: Optional[Sequence[ExplorationMonitor]],
    monitor_cut: bool,
) -> Optional[ExplorationResult]:
    """The ``REPRO_SHARD`` entry point :func:`repro.memory.exploration.
    explore` dispatches through; ``None`` means "run serial".

    Declines when sharding cannot run: shard count <= 1, no ``fork``
    start method, or inside a daemonic pool child (corpus-level
    parallelism already owns the budget there — see ``plan_jobs``).
    """
    jobs = resolve_shard_jobs(None)
    if jobs <= 1:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if multiprocessing.current_process().daemon:
        return None
    return shard_explore(
        program, cfg, observe_locs, por, monitors, monitor_cut, jobs,
    )
