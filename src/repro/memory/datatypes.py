"""Core data types of the memory-model substrate.

The executors implement the *single-global-timeline* formulation of the
Promising Arm model (Pulte et al., PLDI 2019, the model Section 4 of the
paper builds on): memory is one append-only list of messages; a message's
timestamp is its position in that list; per-thread *views* are scalar
timestamps (the thread's knowledge frontier into the timeline).  This is
sound for Armv8 because Armv8 is multicopy-atomic — all CPUs agree on one
order of writes, and relaxed behavior comes from threads *reading stale*
messages and *promising* writes ahead of their program-order turn.

Everything here is immutable so whole machine states can be hashed for
the exploration engines' duplicate detection.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, FrozenSet, NamedTuple, Optional, Tuple


class Message(NamedTuple):
    """One write in the global timeline.

    ``ts`` is 1-based (timestamp 0 is the implicit initialization write of
    every location).  ``promised`` is True while the write is an
    unfulfilled promise: it is visible to other threads (that is the point
    of promises) but its own thread must still execute the store that
    fulfills it before the execution can terminate.
    """

    ts: int
    loc: int
    val: int
    tid: int
    promised: bool = False


class Fault(NamedTuple):
    """A translation fault taken by a thread's virtual access."""

    tid: int
    vaddr: int


class Behavior(NamedTuple):
    """One observable outcome of a program execution (Section 4).

    Per the paper, observable behavior is (1) the execution results of the
    kernel program — final registers and final shared-memory contents —
    and (2) the results of user memory accesses through shared page
    tables, which our executors surface as the user threads' observed
    registers and recorded page faults.  A modeled panic is also
    observable (and is what the DRF checkers look for).
    """

    registers: Tuple[Tuple[int, str, int], ...]   # (tid, reg, value)
    memory: Tuple[Tuple[int, int], ...]           # (loc, final value)
    faults: Tuple[Fault, ...]
    panic: Optional[str] = None

    def pretty(self) -> str:
        regs = ", ".join(f"t{t}.{r}={v}" for t, r, v in self.registers)
        mem = ", ".join(f"[{hex(l)}]={v}" for l, v in self.memory)
        parts = [p for p in (regs, mem) if p]
        if self.faults:
            parts.append(
                "faults: " + ", ".join(f"t{f.tid}@{hex(f.vaddr)}" for f in self.faults)
            )
        if self.panic is not None:
            parts.append(f"PANIC({self.panic})")
        return "{" + "; ".join(parts) + "}"


class ExplorationMonitor:
    """Streaming observer of one exploration run.

    Monitors are the engine's alternative to buffering terminal states:
    instead of asking :func:`~repro.memory.exploration.explore` to retain
    every terminal machine state (O(states) memory) and scanning the
    buffer afterwards, a monitor receives each *valid* terminal state the
    moment the DFS pops it — :meth:`on_terminal` for normal termination,
    :meth:`on_panic` for panicked executions — and folds it into whatever
    verdict it is accumulating.

    Calling :meth:`stop` declares that the monitor has its answer (for
    the verification checkers: a counterexample was found).  A stopped
    monitor receives no further callbacks; when *every* monitor of a run
    has stopped, the search itself is cut and the result is marked
    ``stopped_early`` — which, unlike a budget cut, does **not** clear
    ``complete``: the monitors chose to stop, nothing was lost that they
    still wanted.

    Determinism contract: the DFS order for a fixed ``(program, cfg,
    por)`` is deterministic, so a monitor observes the identical callback
    sequence whether it runs alone or fused with other monitors in one
    pass — other monitors can prolong the search past its stop point but
    never reorder or insert callbacks before it.  This is what makes
    fused verification passes bit-identical to per-condition ones.

    Bookkeeping (maintained by :meth:`observe`, the engine-facing entry
    point): ``terminals_seen`` / ``panics_seen`` count callbacks
    delivered, and ``states_seen`` is the exploration's
    ``states_explored`` counter at the most recent callback — after a
    :meth:`stop` it freezes at the stop point, giving the monitor an
    early-exit-accurate "states explored" figure for its evidence.

    Subclasses that want their verdict cached through
    :func:`repro.memory.cache.cached_explore` list their own mutable
    fields in ``extra_state`` (picklable values only) and give distinct
    parameterizations distinct :meth:`fingerprint` strings.

    Symmetry contract: a subclass sets ``symmetric = True`` only when
    its verdict is the same on every search that reaches the same
    terminal states up to a renaming of identical CPUs.  The explorer
    may then key states up to such a renaming
    (:func:`repro.memory.exploration._symmetry_applies`), and the
    monitor sees one representative of each orbit, so it may stop at a
    counterexample whose CPU ids are renamed within a group.  A monitor
    whose verdict depends only on *whether* some panic of a kind is
    reachable qualifies; one that reads which CPU did what does not.
    """

    #: Stable identity of the monitor class for cache fingerprints.
    kind: str = "monitor"
    #: True when the verdict is invariant under renaming identical CPUs
    #: (see the symmetry contract above); off by default.
    symmetric: bool = False
    #: Subclass-owned mutable fields included in snapshot()/restore().
    extra_state: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.terminals_seen = 0
        self.panics_seen = 0
        self.states_seen = 0
        self._stopped = False

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Declare the verdict final; no further callbacks are wanted."""
        self._stopped = True

    # -- callbacks (override in subclasses) ---------------------------
    def on_terminal(self, state: Any) -> None:
        """A valid, non-panicked terminal machine state."""

    def on_panic(self, reason: str, state: Any) -> None:
        """A panicked terminal machine state (panics are observable)."""

    # -- engine-facing driver -----------------------------------------
    def observe(self, state: Any, states_explored: int) -> None:
        """Deliver one valid terminal state (called by the explorer)."""
        self.states_seen = states_explored
        if state.panic is not None:
            self.panics_seen += 1
            self.on_panic(str(state.panic), state)
        else:
            self.terminals_seen += 1
            self.on_terminal(state)

    # -- cache support ------------------------------------------------
    def fingerprint(self) -> str:
        """Stable description of this monitor's identity + parameters."""
        return self.kind

    def _state_fields(self) -> Tuple[str, ...]:
        return (
            "terminals_seen", "panics_seen", "states_seen", "_stopped",
        ) + tuple(self.extra_state)

    def snapshot(self) -> Dict[str, Any]:
        """Picklable dump of the accumulated verdict state."""
        return {name: getattr(self, name) for name in self._state_fields()}

    def restore(self, snap: Dict[str, Any]) -> None:
        """Replay a :meth:`snapshot` (cache hit instead of re-exploring)."""
        for name, value in snap.items():
            setattr(self, name, value)


@dataclass
class EngineStats:
    """Mutable performance counters of one exploration run.

    The exploration engine threads a single ``EngineStats`` through the
    outer DFS and every nested certification search so future perf work
    can see exactly where states/second goes:

    * ``certify_calls`` / ``certify_memo_hits`` — certification verdicts
      requested vs. answered from the :class:`~repro.memory.semantics.
      CertMemo` without re-searching.
    * ``candidate_calls`` / ``candidate_memo_hits`` — same for
      promise-candidate collection.
    * ``cert_budget_hits`` — certification searches cut short by
      ``cert_max_states``.  A budget-cut certification may have wrongly
      rejected a promise, so any hit marks the exploration incomplete
      (the behavior set could be an under-approximation); memo replays
      of a budget-cut verdict count again, keeping the counter invariant
      under memoization.
    * ``successors_generated`` — total successor states produced by the
      step relation (before deduplication), doomed ones excluded.
    * ``doomed_pruned`` — successors the relaxed explorer dropped because
      a thread holds a promise no reachable store can fulfil and no
      ``Panic`` is reachable (see :func:`repro.memory.exploration.
      _drop_doomed`); such states could never reach a valid terminal.
    * ``dead_promises_pruned`` — successors the same filter dropped
      because a thread holds a promise its own views have passed
      (``p <= max(coh[loc], vwn, vctrl)``), so no store can fulfil it.
    * ``promise_gate_skips`` — promise candidates the relaxed explorer
      skipped because the thread stands at the plain store that writes
      them (see :func:`repro.memory.exploration._promise_gate`); that
      store reaches the same states by executing.
    * ``await_pruned`` — taken back-edges of pure await loops the
      explorer dropped (see :func:`repro.memory.exploration.
      thread_steps`): a failed spin iteration whose thread waits at the
      loop head instead.
    * ``por_ample_hits`` — states expanded through a single ample thread
      instead of the full scheduler fan-out.
    * ``interner_timelines`` — distinct message timelines hash-consed by
      the exploration's shared :class:`~repro.memory.state.StateInterner`
      (0 when interning is disabled).
    * ``por_gate_skips`` — explorations whose :class:`~repro.memory.por.
      PORPlan` construction was skipped by the cheap static gate (small
      non-relaxed programs, where the reduction's bookkeeping costs more
      than the interleavings it prunes).
    * ``monitor_stops`` — streaming monitors that called ``stop()``
      during this run (early verdicts; see :class:`ExplorationMonitor`).
    * ``fused_conditions`` — monitors beyond the first attached to this
      run, i.e. verification conditions served by an exploration that
      was already being paid for instead of a pass of their own.
    * ``symmetric_threads`` — threads in a group of two or more
      interchangeable threads whose states the explorer identified up
      to a permutation (see :func:`repro.memory.exploration.explore`);
      0 when the symmetry reduction is off.
    """

    certify_calls: int = 0
    certify_memo_hits: int = 0
    candidate_calls: int = 0
    candidate_memo_hits: int = 0
    cert_budget_hits: int = 0
    successors_generated: int = 0
    doomed_pruned: int = 0
    promise_gate_skips: int = 0
    dead_promises_pruned: int = 0
    await_pruned: int = 0
    por_ample_hits: int = 0
    interner_timelines: int = 0
    por_gate_skips: int = 0
    monitor_stops: int = 0
    fused_conditions: int = 0
    symmetric_threads: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot (used by the ``bench`` subcommand)."""
        return asdict(self)

    def add(self, other: "EngineStats") -> "EngineStats":
        """Accumulate *other* into this counter set (for corpus sums)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class ExplorationResult:
    """The outcome of exhaustively exploring a program under a model.

    ``terminal_states`` is only populated when the exploration was asked
    to keep them (debugging/auditing; the verification checkers stream
    terminal states through :class:`ExplorationMonitor` instead).
    ``stats`` carries the engine's :class:`EngineStats` counters; entry
    points that synthesize results (sampling, axiomatic comparison) may
    leave it ``None``.

    ``stopped_early`` records that the search was cut because every
    attached monitor had called ``stop()`` — a chosen early exit, so it
    does **not** imply ``complete=False``.  A monitor that stops has its
    verdict (for the checkers: a definitive counterexample); only budget
    cuts mark the result incomplete.
    """

    behaviors: FrozenSet[Behavior]
    complete: bool
    states_explored: int
    cut_paths: int
    terminal_states: Tuple = ()
    stats: Optional[EngineStats] = None
    stopped_early: bool = False

    @property
    def panics(self) -> FrozenSet[str]:
        """The distinct panic reasons reachable in the exploration."""
        return frozenset(
            b.panic for b in self.behaviors if b.panic is not None
        )

    @property
    def panic_free(self) -> bool:
        return not self.panics

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [
            f"{len(self.behaviors)} behaviors "
            f"({'complete' if self.complete else 'INCOMPLETE'}, "
            f"{self.states_explored} states, {self.cut_paths} cut paths)"
        ]
        for b in sorted(self.behaviors):
            lines.append("  " + b.pretty())
        return "\n".join(lines)


def last_write_ts(memory: Tuple[Message, ...], loc: int, upto: int) -> int:
    """Timestamp of the last write to *loc* at or before time *upto*.

    Returns 0 (the initialization write) when no explicit write qualifies.
    ``upto`` may exceed ``len(memory)``; it is clamped.
    """
    upto = min(upto, len(memory))
    for ts in range(upto, 0, -1):
        if memory[ts - 1].loc == loc:
            return ts
    return 0


def latest_write_ts(memory: Tuple[Message, ...], loc: int) -> int:
    """Timestamp of the globally latest write to *loc* (0 = init)."""
    return last_write_ts(memory, loc, len(memory))


def value_at(
    memory: Tuple[Message, ...], loc: int, ts: int, init: int
) -> int:
    """The value of the write to *loc* at timestamp *ts* (0 = initial)."""
    if ts == 0:
        return init
    msg = memory[ts - 1]
    if msg.loc != loc:
        raise ValueError(f"message at ts {ts} is for loc {msg.loc}, not {loc}")
    return msg.val
