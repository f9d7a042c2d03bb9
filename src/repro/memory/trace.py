"""Execution tracing: find and explain a concrete relaxed execution.

When a checker or a behavior comparison reports an RM-only outcome, the
natural next question is *how* the hardware gets there.  This module
searches the Promising Arm state space for an execution reaching a
given behavior and renders it in the style of the paper's Figure 3: the
global promise list (the message timeline) plus each CPU's step
sequence with read-from / fulfill annotations.

The traced search re-runs the same step relation as the main explorer
but keeps the path of :class:`TraceEvent` records, reconstructed by
diffing consecutive machine states (new messages, promise fulfillment,
program-counter movement, register updates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.ir.program import Program
from repro.memory.behaviors import admits
from repro.memory.datatypes import Behavior
from repro.memory.exploration import (
    _is_terminal,
    _is_valid_terminal,
    behavior_of,
    thread_steps,
)
from repro.memory.semantics import (
    CertMemo,
    ModelConfig,
    ProgramCache,
    promise_steps,
    resolve_model,
    resolve_vm_features,
    tso_flush_steps,
)
from repro.memory.state import ExecState, initial_state, tget


@dataclass(frozen=True)
class TraceEvent:
    """One step of an execution, reconstructed from a state diff."""

    tid: int
    kind: str            # "exec" | "promise" | "fulfill" | "flush"
    instruction: str
    new_message: Optional[str] = None
    read_note: Optional[str] = None

    def render(self) -> str:
        parts = [f"CPU {self.tid}: {self.kind:<8} {self.instruction}"]
        if self.new_message:
            parts.append(f"-> {self.new_message}")
        if self.read_note:
            parts.append(f"[{self.read_note}]")
        return " ".join(parts)


@dataclass(frozen=True)
class ExecutionTrace:
    """A full execution: events plus the final state.

    ``states`` holds the machine state at every step when the search
    recorded them (``states[0]`` is the initial state and
    ``states[i + 1]`` the state after ``events[i]``) — the renderer in
    :mod:`repro.obs.render` uses it to show per-thread views and the
    coherence order step by step.  Pre-existing producers may leave it
    empty.
    """

    program_name: str
    events: Tuple[TraceEvent, ...]
    final_state: ExecState
    behavior: Behavior
    states: Tuple[ExecState, ...] = ()

    def render(self) -> str:
        lines = [f"execution of {self.program_name!r}:"]
        for i, event in enumerate(self.events):
            lines.append(f"  {i + 1:>3}. {event.render()}")
        lines.append("  promise list (global timeline):")
        for msg in self.final_state.memory:
            lines.append(
                f"    ({msg.ts}) CPU {msg.tid}: [{msg.loc:#x}] := {msg.val}"
            )
        lines.append(f"  outcome: {self.behavior.pretty()}")
        return "\n".join(lines)


def _diff_event(
    cache: ProgramCache, before: ExecState, after: ExecState, tid_idx: int
) -> TraceEvent:
    """Reconstruct what thread *tid_idx* did between two states."""
    from repro.ir.pretty import format_instruction

    thread = cache.threads[tid_idx]
    ctx_before = before.threads[tid_idx]
    ctx_after = after.threads[tid_idx]
    if ctx_before.pc < cache.thread_len(tid_idx):
        instr = format_instruction(cache.instr_at(tid_idx, ctx_before.pc))
    else:
        instr = "<halted>"

    if len(ctx_after.wbuf) < len(ctx_before.wbuf):
        # The internal TSO step: the store buffer's head hit memory
        # (no instruction executed, the pc did not move).
        loc, val = ctx_before.wbuf[0]
        return TraceEvent(
            tid=thread.tid,
            kind="flush",
            instruction="<flush store buffer>",
            new_message=f"[{loc:#x}] := {val} (buffered write drains)",
        )

    new_message = None
    kind = "exec"
    if len(after.memory) > len(before.memory):
        msg = after.memory[-1]
        flavor = "promise" if msg.promised else "write"
        new_message = f"({msg.ts}) [{msg.loc:#x}] := {msg.val} ({flavor})"
        if msg.promised:
            kind = "promise"
            instr = "<promise a future store>"
        elif len(after.memory) - len(before.memory) > 1:
            # One architectural step appended several messages: under the
            # ``had`` VM feature a translation's hardware access/dirty-bit
            # update precedes the access's own write.
            extras = ", ".join(
                f"({m.ts}) [{m.loc:#x}] := {m.val} (hw A/D update)"
                for m in after.memory[len(before.memory):-1]
            )
            new_message = f"{extras}; {new_message}"
    else:
        # A promise may have been fulfilled: a message flipped state.
        for m_before, m_after in zip(before.memory, after.memory):
            if m_before.promised and not m_after.promised:
                kind = "fulfill"
                new_message = (
                    f"fulfills ({m_after.ts}) [{m_after.loc:#x}] := {m_after.val}"
                )
                break

    read_note = None
    regs_before = dict(ctx_before.regs)
    for reg, value in ctx_after.regs:
        if regs_before.get(reg) != value:
            ts = tget(ctx_after.rv, reg, 0)
            read_note = f"{reg} := {value} (view ts {ts})"
            break
    return TraceEvent(
        tid=thread.tid,
        kind=kind,
        instruction=instr,
        new_message=new_message,
        read_note=read_note,
    )


def find_execution(
    program: Program,
    cfg: ModelConfig,
    predicate: Callable[[Behavior], bool],
    observe_locs: Optional[Sequence[int]] = None,
    state_predicate: Optional[Callable[[ExecState], bool]] = None,
) -> Optional[ExecutionTrace]:
    """DFS for a terminal behavior satisfying *predicate*; returns its
    trace, or None if unreachable within the budget.

    *state_predicate*, when given, must additionally accept the terminal
    :class:`ExecState` — used to search for executions identified by
    timeline properties (e.g. a BMC counterexample's write history)
    rather than by observable behavior alone."""
    cfg = resolve_model(resolve_vm_features(cfg))
    cache = ProgramCache(program)
    if observe_locs is None:
        observe_locs = sorted(cache.initial_memory)
    start = initial_state(len(program.threads), cfg.initial_ownership)
    stack: List[
        Tuple[ExecState, Tuple[TraceEvent, ...], Tuple[ExecState, ...]]
    ] = [(start, (), (start,))]
    visited: Set[ExecState] = {start}
    budget = cfg.max_states
    memo = CertMemo()  # share certification work across the traced search
    # Witnesses skip failed iterations of pure await loops, as the
    # explorer does.
    awaits = cache.await_backedges(cfg.pushpull)

    while stack and budget > 0:
        state, path, states = stack.pop()
        budget -= 1
        if _is_terminal(state):
            if _is_valid_terminal(state):
                behavior = behavior_of(cache, state, observe_locs)
                if predicate(behavior) and (
                    state_predicate is None or state_predicate(state)
                ):
                    return ExecutionTrace(
                        program_name=program.name,
                        events=path,
                        final_state=state,
                        behavior=behavior,
                        states=states,
                    )
            continue
        for tidx in range(len(program.threads)):
            for succ in tso_flush_steps(cache, state, tidx, cfg):
                if succ not in visited and len(succ.memory) <= cfg.max_memory:
                    visited.add(succ)
                    event = _diff_event(cache, state, succ, tidx)
                    stack.append((succ, path + (event,), states + (succ,)))
            for succ in thread_steps(cache, state, tidx, cfg, awaits):
                if succ not in visited and len(succ.memory) <= cfg.max_memory:
                    visited.add(succ)
                    event = _diff_event(cache, state, succ, tidx)
                    stack.append((succ, path + (event,), states + (succ,)))
            for succ in promise_steps(cache, state, tidx, cfg, memo):
                if succ not in visited and len(succ.memory) <= cfg.max_memory:
                    visited.add(succ)
                    event = _diff_event(cache, state, succ, tidx)
                    stack.append((succ, path + (event,), states + (succ,)))
    return None


def explain_outcome(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    **register_values: int,
) -> Optional[ExecutionTrace]:
    """Find an execution whose registers match ``t{tid}_{reg}=value``
    constraints (the :func:`repro.memory.behaviors.admits` convention)."""
    wanted = {}
    for key, value in register_values.items():
        tid_part, _, reg = key.partition("_")
        wanted[(int(tid_part[1:]), reg)] = value

    def predicate(behavior: Behavior) -> bool:
        assignment = {(t, r): v for t, r, v in behavior.registers}
        return all(assignment.get(k) == v for k, v in wanted.items())

    return find_execution(program, cfg, predicate, observe_locs)
