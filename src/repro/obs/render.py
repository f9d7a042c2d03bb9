"""Execution explanations: from witness to step-by-step account.

A raw counterexample — a conformance-corpus entry or a failed wDRF
check — names an outcome but not the mechanism.  This module finds a
concrete execution reaching the outcome (via
:func:`repro.memory.trace.find_execution`) and renders it as the paper's
Figure 3 does a Promising-model run: the step sequence with each CPU's
view frontiers after its step, the promises made and their
certification outcomes, the per-location coherence order, and the final
observable behavior.  :func:`render_explanation` produces the textual
form, :func:`explanation_json` the machine-readable one; both are wired
into ``repro trace``.

Engine modules are imported lazily inside functions: ``repro.memory``
imports :mod:`repro.obs.tracer`, so a module-level import here would
cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


def _thread_index(program, tid: int) -> Optional[int]:
    """Map a CPU id to its index in ``state.threads`` (None if unknown)."""
    if program is None:
        return None
    for idx, thread in enumerate(program.threads):
        if thread.tid == tid:
            return idx
    return None


def _views_line(ctx) -> str:
    """One thread's view frontiers, rendered compactly."""
    coh = " ".join(f"{loc:#x}@{ts}" for loc, ts in sorted(ctx.coh))
    line = (
        f"vrn={ctx.vrn} vwn={ctx.vwn} vro={ctx.vro} vwo={ctx.vwo} "
        f"vctrl={ctx.vctrl}"
    )
    if coh:
        line += f"  coh: {coh}"
    if ctx.promises:
        line += f"  outstanding promises: {list(ctx.promises)}"
    if ctx.wbuf:
        buffered = ", ".join(f"[{loc:#x}]:={val}" for loc, val in ctx.wbuf)
        line += f"  store buffer: {buffered}"
    return line


def _views_dict(ctx) -> Dict[str, Any]:
    """One thread's view frontiers as JSON-ready data."""
    return {
        "vrn": ctx.vrn,
        "vwn": ctx.vwn,
        "vro": ctx.vro,
        "vwo": ctx.vwo,
        "vctrl": ctx.vctrl,
        "coh": {f"{loc:#x}": ts for loc, ts in sorted(ctx.coh)},
        "outstanding_promises": list(ctx.promises),
        "store_buffer": [[loc, val] for loc, val in ctx.wbuf],
    }


def _value_before(program, state, loc: int) -> int:
    """The committed value of *loc* in *state* (initial memory included)."""
    for msg in reversed(state.memory):
        if msg.loc == loc and not msg.promised:
            return msg.val
    if program is not None:
        return program.initial_memory.get(loc, 0)
    return 0


def _walk_notes(program, before, after, event) -> List[str]:
    """Walk-level annotations for one step (empty for MMU-free steps).

    Explains the three mechanisms the VM feature families introduce:
    hardware A/D writes riding on a translation, intermediate walk
    entries entering/leaving the walk cache, and the break-before-make
    window around page-table stores (including its violation, the
    live -> live overwrite whose old descriptor stays walkable).
    """
    notes: List[str] = []
    if event.new_message and "(hw A/D update)" in event.new_message:
        notes.append(
            "hardware walker wrote access/dirty bits into the stage-1 "
            "leaf — an ordinary coherence-participating write"
        )
    gained = set(after.walk_cache) - set(before.walk_cache)
    lost = set(before.walk_cache) - set(after.walk_cache)
    for (cpu, loc), val in sorted(gained):
        notes.append(
            f"walker cached intermediate descriptor [{loc:#x}] = {val:#x} "
            f"for CPU {cpu} — later walks may hit it without re-reading "
            f"memory"
        )
    if lost:
        notes.append(
            f"TLBI flushed {len(lost)} cached intermediate walk "
            f"descriptor(s)"
        )
    if (
        event.kind == "exec"
        and event.new_message
        and "-pt L" in event.instruction
        and "(write)" in event.new_message
    ):
        msg = after.memory[-1]
        old = _value_before(program, before, msg.loc)
        if msg.val == 0:
            notes.append(
                "break: page-table entry invalidated — racing walks fault "
                "until the remade entry is published (BBM window open)"
            )
        elif old == 0:
            notes.append(
                "make: entry published over an invalid entry "
                "(break-before-make respected)"
            )
        else:
            notes.append(
                "live -> live page-table overwrite: under the `bbm` "
                "feature the old descriptor remains a walker candidate "
                "(amalgamation) — the break-before-make protocol was "
                "skipped"
            )
    return notes


def _coherence_order(trace) -> Dict[int, List[Any]]:
    """Per-location write order: the global timeline grouped by location."""
    order: Dict[int, List[Any]] = {}
    for msg in trace.final_state.memory:
        order.setdefault(msg.loc, []).append(msg)
    return order


def _promise_ledger(trace) -> List[Dict[str, Any]]:
    """The promises of the execution with their certification outcomes.

    Every promise appearing in a found execution was admitted by the
    thread-local certification search (``promise_steps`` discards
    uncertifiable candidates), and a *valid* terminal state has no
    outstanding promises — so each ledger entry records the certified
    promise and the step that later fulfilled it.
    """
    ledger: List[Dict[str, Any]] = []
    for step, event in enumerate(trace.events, 1):
        if event.kind == "promise":
            ledger.append({
                "step": step,
                "tid": event.tid,
                "message": event.new_message,
                "certified": True,
                "fulfilled_at_step": None,
            })
        elif event.kind == "fulfill":
            for entry in ledger:
                if (
                    entry["fulfilled_at_step"] is None
                    and entry["tid"] == event.tid
                ):
                    entry["fulfilled_at_step"] = step
                    break
    return ledger


def render_explanation(
    trace,
    program=None,
    title: Optional[str] = None,
    notes: Sequence[str] = (),
) -> str:
    """Render an :class:`~repro.memory.trace.ExecutionTrace` step by step.

    Shows, per step, what the CPU did (with read-from / promise /
    fulfill annotations) and the acting thread's view frontiers after
    the step; then the promise ledger with certification outcomes, the
    per-location coherence order, final per-thread views, and the
    observable outcome.  ``program`` maps CPU ids to thread indices for
    the view lookups (without it, ``tid == index`` is assumed, which
    holds for every generated program in this repo).  ``notes`` are
    context lines (oracle, detail) printed under the title.
    """
    from repro.memory.semantics import env_model

    lines: List[str] = []
    lines.append(title or f"execution explanation: {trace.program_name!r}")
    model = env_model()
    if model != "arm":
        lines.append(f"  model: {model} (REPRO_MODEL)")
    for note in notes:
        lines.append(f"  {note}")
    lines.append("")
    lines.append("step-by-step (views shown after each step):")
    have_states = len(trace.states) == len(trace.events) + 1
    for i, event in enumerate(trace.events):
        lines.append(f"  {i + 1:>3}. {event.render()}")
        if have_states:
            idx = _thread_index(program, event.tid)
            if idx is None:
                idx = event.tid
            state = trace.states[i + 1]
            if 0 <= idx < len(state.threads):
                lines.append(
                    f"       CPU {event.tid} views: "
                    + _views_line(state.threads[idx])
                )
            for note in _walk_notes(
                program, trace.states[i], state, event
            ):
                lines.append(f"       walk: {note}")
    ledger = _promise_ledger(trace)
    lines.append("")
    if ledger:
        lines.append("promises (all certified by the thread-local search):")
        for entry in ledger:
            fulfilled = (
                f"fulfilled at step {entry['fulfilled_at_step']}"
                if entry["fulfilled_at_step"] is not None
                else "outstanding"
            )
            lines.append(
                f"  step {entry['step']:>3}: CPU {entry['tid']} promised "
                f"{entry['message']} — certified, {fulfilled}"
            )
    else:
        lines.append("promises: none (no store was promoted ahead of "
                     "program order)")
    lines.append("")
    lines.append("coherence order (per-location write order):")
    for loc, msgs in sorted(_coherence_order(trace).items()):
        chain = " -> ".join(
            f"({m.ts}) CPU {m.tid} := {m.val}" for m in msgs
        )
        lines.append(f"  [{loc:#x}]: init -> {chain}")
    lines.append("")
    lines.append("final per-thread views:")
    threads = trace.final_state.threads
    for idx, ctx in enumerate(threads):
        tid = program.threads[idx].tid if program is not None else idx
        lines.append(f"  CPU {tid}: " + _views_line(ctx))
    if trace.final_state.panic is not None:
        lines.append("")
        lines.append(f"PANIC: {trace.final_state.panic}")
    lines.append("")
    lines.append(f"outcome: {trace.behavior.pretty()}")
    return "\n".join(lines)


def explanation_json(
    trace, program=None, notes: Sequence[str] = ()
) -> Dict[str, Any]:
    """The machine-readable form of :func:`render_explanation`."""
    from repro.memory.semantics import env_model

    have_states = len(trace.states) == len(trace.events) + 1
    steps: List[Dict[str, Any]] = []
    for i, event in enumerate(trace.events):
        step: Dict[str, Any] = {
            "step": i + 1,
            "tid": event.tid,
            "kind": event.kind,
            "instruction": event.instruction,
            "message": event.new_message,
            "read": event.read_note,
        }
        if have_states:
            idx = _thread_index(program, event.tid)
            if idx is None:
                idx = event.tid
            state = trace.states[i + 1]
            if 0 <= idx < len(state.threads):
                step["views"] = _views_dict(state.threads[idx])
            walk = _walk_notes(program, trace.states[i], state, event)
            if walk:
                step["walk"] = walk
        steps.append(step)
    threads = trace.final_state.threads
    final_views = {}
    for idx, ctx in enumerate(threads):
        tid = program.threads[idx].tid if program is not None else idx
        final_views[str(tid)] = _views_dict(ctx)
    return {
        "schema": "repro.obs.explanation/v1",
        "program": trace.program_name,
        "model": env_model(),
        "notes": list(notes),
        "steps": steps,
        "promises": _promise_ledger(trace),
        "coherence": {
            f"{loc:#x}": [
                {"ts": m.ts, "tid": m.tid, "value": m.val} for m in msgs
            ]
            for loc, msgs in sorted(_coherence_order(trace).items())
        },
        "final_views": final_views,
        "panic": trace.final_state.panic,
        "outcome": trace.behavior.pretty(),
    }


def explain_drf_violation(
    program,
    shared_locs,
    initial_ownership=(),
    **overrides,
):
    """Find a panicking execution witnessing a wDRF (DRF-Kernel) failure.

    Runs the traced search on the push/pull Promising model — the
    configuration :func:`repro.vrm.drf_kernel.check_drf_kernel` fails
    on — and returns the :class:`~repro.memory.trace.ExecutionTrace` of
    the first ownership-violation panic, or ``None`` when the program
    actually satisfies the discipline.
    """
    from repro.memory.pushpull import pushpull_config
    from repro.memory.trace import find_execution

    cfg = pushpull_config(
        relaxed=True,
        owned_access_required=frozenset(shared_locs),
        initial_ownership=tuple(initial_ownership),
        **overrides,
    )
    return find_execution(
        program, cfg, lambda b: b.panic is not None, observe_locs=[]
    )


def explain_conformance_entry(entry: Dict[str, Any]):
    """Turn one corpus counterexample entry into an explained execution.

    Returns ``(trace, program, notes)``; ``trace`` is ``None`` when no
    execution illustrating the disagreement could be found within the
    budget.  The shrunk genome is preferred (it is the 1-minimal
    witness).  The execution searched for depends on the witness kind
    the oracle registry (:data:`repro.conformance.oracles.ORACLES`)
    records for the oracle:

    * ``vm`` (and every ``vm`` genome) — under the VM feature families,
      a stale-translation behavior of the ``vm`` skeleton or a behavior
      the features add to an MMU-free program;
    * ``model-diff`` — an RM execution reaching a behavior outside the
      SC set, the concrete relaxed-memory effect behind the
      disagreement;
    * ``config`` (and unknown oracles) — on ``sync`` genomes a push/pull
      execution reaching a DRF panic, otherwise a representative
      relaxed execution of the witness program.
    """
    from repro.conformance.genome import Genome, build, shared_locations
    from repro.conformance.oracles import CONFIG, MODEL_DIFF, ORACLES, VM
    from repro.memory.behaviors import compare_models
    from repro.memory.semantics import PROMISING_ARM
    from repro.memory.trace import find_execution

    genome_json = entry.get("shrunk_genome") or entry["genome"]
    genome = Genome.from_json(genome_json)
    program = build(genome)
    oracle = str(entry.get("oracle", ""))
    kind = ORACLES[oracle].witness if oracle in ORACLES else CONFIG
    notes = [
        f"oracle: {oracle}",
        f"detail: {entry.get('detail', '')}",
        f"genome: {genome.name} ({genome.profile}, {genome.size()} ops"
        + (", shrunk)" if entry.get("shrunk_genome") else ")"),
    ]

    if genome.profile == "vm" or kind == VM:
        from dataclasses import replace

        from repro.conformance.genome import VM_NEW_VAL, VM_PROFILE_FEATURES
        from repro.memory import explore

        cfg = replace(PROMISING_ARM, vm_features=VM_PROFILE_FEATURES)
        featured = explore(program, cfg)
        if genome.profile == "vm":
            label = "stale-translation"
            odd = [
                b for b in featured.behaviors
                if b.panic is None
                and not any(f.tid == 1 for f in b.faults)
                and any(
                    t == 1 and r == "r_chk" and v != VM_NEW_VAL
                    for t, r, v in b.registers
                )
            ]
        else:
            label = "feature-only"
            odd = featured.behaviors - explore(program, PROMISING_ARM).behaviors
        odd = sorted(odd)
        if odd:
            notes.append(
                f"witness: {label} behavior {odd[0].pretty()} "
                f"under VM features {sorted(VM_PROFILE_FEATURES)}"
            )
            target = odd[0]
        elif featured.behaviors:
            notes.append(
                "witness: representative execution under VM features "
                f"{sorted(VM_PROFILE_FEATURES)} (the oracle disagreement "
                "is a walk-level property, not a plain behavior diff)"
            )
            target = sorted(featured.behaviors)[0]
        else:
            return None, program, notes
        trace = find_execution(program, cfg, lambda b: b == target)
        return trace, program, notes

    if genome.profile == "sync" and kind != MODEL_DIFF:
        trace = explain_drf_violation(program, shared_locations(genome))
        if trace is not None:
            notes.append(
                "witness: an execution panicking under the push/pull "
                "ownership discipline"
            )
            return trace, program, notes

    comparison = compare_models(program)
    target = None
    if comparison.rm_only:
        target = sorted(comparison.rm_only)[0]
        notes.append(
            f"witness: RM-only behavior {target.pretty()} "
            f"({len(comparison.rm_only)} RM-only behavior(s) total)"
        )
    elif comparison.rm.behaviors:
        target = sorted(comparison.rm.behaviors)[0]
        notes.append(
            "witness: representative relaxed execution (the oracle "
            "disagreement is about engine configuration, not behavior)"
        )
    if target is None:
        return None, program, notes
    trace = find_execution(program, PROMISING_ARM, lambda b: b == target)
    return trace, program, notes
