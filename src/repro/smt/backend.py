"""The BMC verification backend: solver answers shaped like engine answers.

Sits between the CNF encoder and the callers that normally consume
exploration results.  Three entry points:

* :func:`bmc_explore` — the full behavior set of a program under a
  model config, as a synthetic :class:`ExplorationResult`
  (``states_explored == 0`` marks it solver-derived).  Behaviors are
  enumerated AllSAT-style: solve, decode the outcome indicators, block
  that outcome, repeat.
* :func:`bmc_condition_results` — wDRF condition verdicts for a fused
  pass-request group, one :class:`ConditionResult` per condition,
  matching the monitors' ``finalize`` semantics (verdict and
  exhaustiveness; evidence strings are backend-flavored).  Violation
  queries are single SAT calls over assertion literals.
* :func:`bmc_witness_trace` — replays a BMC counterexample through the
  *operational* engine into a real :class:`ExecutionTrace`, so
  ``repro trace`` / ``obs.render`` explain solver counterexamples
  exactly like exploration ones.  The replay doubles as an independent
  soundness check: a violation the operational model cannot reproduce
  would surface here.

Depth bounds: ``REPRO_BMC_DEPTH=k`` checks conditions over each
thread's first ``k`` instructions.  A SAT answer at any depth is a real
counterexample (loop-free prefix executions always extend — see
docs/MODEL.md); an UNSAT answer is a bounded verdict
(``exhaustive=False``) unless the bound covers every thread.
``REPRO_BMC_INDUCTION=1`` extends an UNSAT bound stepwise until the
unrolling closes (the loop-free analogue of a k-induction ladder),
recovering an unbounded verdict.

Answers are cached under :func:`repro.memory.cache.bmc_query_key`
(exploration-key derived, ``backend="bmc"`` axis, solver-source
digest), so repeat verification hits disk exactly like exploration
does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import config
from repro.errors import VerificationError
from repro.ir.program import Program
from repro.memory.cache import bmc_query_key, cached_bmc_query
from repro.memory.datatypes import Behavior, ExplorationResult
from repro.memory.semantics import ModelConfig
from repro.memory.trace import ExecutionTrace, find_execution
from repro.smt.encode import (
    ProgramEncoding,
    Unsupported,
    quick_unsupported,
)
from repro.vrm.conditions import ConditionResult, WDRFCondition

__all__ = [
    "BmcStats",
    "bmc_behaviors",
    "bmc_condition_results",
    "bmc_explore",
    "bmc_supported",
    "bmc_witness_trace",
]

#: Outcome-enumeration cap; hitting it means the outcome space is too
#: large for AllSAT and the caller must fall back to exploration.
_ALLSAT_CAP = 4096

#: Monitor kinds the condition compiler understands.
_CONDITION_KINDS = (
    "drf_kernel", "barrier_misuse", "write_once", "memory_isolation",
)


@dataclass
class BmcStats:
    """Aggregated backend counters (bench/observability surface)."""

    encodings: int = 0
    solve_calls: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    outcomes: int = 0
    clauses: int = 0
    variables: int = 0
    conflicts: int = 0
    propagations: int = 0

    def merge_encoding(self, encoding: ProgramEncoding) -> None:
        """Fold one encoding's size into the counters."""
        self.encodings += 1
        self.clauses += encoding.builder.num_clauses
        self.variables += encoding.builder.num_vars

    def merge_solver(self, solver) -> None:
        """Fold one solver's lifetime counters in."""
        self.solve_calls += solver.stats.solve_calls
        self.conflicts += solver.stats.conflicts
        self.propagations += solver.stats.propagations

    def count_answer(self, sat: bool) -> None:
        """Count one ``solve()`` answer; every solve call site calls this,
        so ``sat_answers + unsat_answers == solve_calls``."""
        if sat:
            self.sat_answers += 1
        else:
            self.unsat_answers += 1

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for JSON reports."""
        return {
            "encodings": self.encodings,
            "solve_calls": self.solve_calls,
            "sat_answers": self.sat_answers,
            "unsat_answers": self.unsat_answers,
            "outcomes": self.outcomes,
            "clauses": self.clauses,
            "variables": self.variables,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
        }


def bmc_supported(
    program: Program,
    cfg: ModelConfig,
    monitors: Sequence[object] = (),
) -> Optional[str]:
    """Why this query cannot go to the BMC backend; None when it can.

    A cheap structural gate — the encoder may still discover a domain
    blow-up and raise :class:`Unsupported`, which callers treat the
    same way (silent fallback to exploration).
    """
    reason = quick_unsupported(program, cfg)
    if reason is not None:
        return reason
    for monitor in monitors:
        kind = getattr(monitor, "kind", None)
        if kind not in _CONDITION_KINDS:
            return f"monitor kind {kind!r} not encodable"
    return None


# ----------------------------------------------------------------------
# behavior enumeration (litmus / conformance surface)


def _enumerate_behaviors(
    encoding: ProgramEncoding, stats: Optional[BmcStats]
) -> FrozenSet[Behavior]:
    solver = encoding.builder.solver()
    behaviors = set()
    answers: List[bool] = []
    for _ in range(_ALLSAT_CAP):
        answers.append(solver.solve())
        if not answers[-1]:
            break
        registers, memory = encoding.decode_outcome(solver.value_of)
        behaviors.add(
            Behavior(registers=registers, memory=memory, faults=())
        )
        block = encoding.outcome_block(solver.value_of)
        if not block:
            break  # single possible outcome
        if not solver.add_clause(block):
            break
    else:
        raise Unsupported("outcome enumeration exceeded the AllSAT cap")
    if stats is not None:
        stats.merge_solver(solver)
        for sat in answers:
            stats.count_answer(sat)
        stats.outcomes += len(behaviors)
    if not behaviors:
        raise VerificationError(
            "BMC found no consistent execution — encoder defect"
        )
    return frozenset(behaviors)


def bmc_behaviors(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    cache: bool = True,
    stats: Optional[BmcStats] = None,
) -> FrozenSet[Behavior]:
    """All behaviors of *program* under *cfg*, decided by SAT.

    Raises :class:`Unsupported` outside the fragment (callers fall
    back to exploration) and :class:`VerificationError` on an encoder
    self-check failure.  Behavior enumeration requires the full
    unrolling — a ``REPRO_BMC_DEPTH`` prefix would yield neither an
    under- nor an over-approximation of the behavior set.
    """
    depth = config.get("bmc_depth")
    if depth is not None and not _covers_program(program, depth):
        raise Unsupported(
            "REPRO_BMC_DEPTH truncates the program; behavior sets need "
            "the full unrolling"
        )

    def compute() -> FrozenSet[Behavior]:
        encoding = ProgramEncoding(program, cfg, observe_locs)
        if stats is not None:
            stats.merge_encoding(encoding)
        return _enumerate_behaviors(encoding, stats)

    if not cache:
        return compute()
    key = bmc_query_key(program, cfg, observe_locs, "behaviors")
    return cached_bmc_query(key, compute)


def bmc_explore(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    cache: bool = True,
    stats: Optional[BmcStats] = None,
) -> ExplorationResult:
    """:func:`bmc_behaviors` shaped like an exploration result.

    ``states_explored == 0`` with ``complete=True`` marks the result
    as solver-derived; ``stats`` stays None (there was no engine run).
    """
    behaviors = bmc_behaviors(program, cfg, observe_locs, cache, stats)
    return ExplorationResult(
        behaviors=behaviors,
        complete=True,
        states_explored=0,
        cut_paths=0,
    )


def _covers_program(program: Program, depth: Optional[int]) -> bool:
    if depth is None:
        return True
    return all(depth >= len(t.instrs) for t in program.threads)


# ----------------------------------------------------------------------
# wDRF condition verdicts


def _assert_consistent(
    encoding: ProgramEncoding, stats: Optional[BmcStats]
) -> None:
    """Self-check: the encoding must admit at least one execution."""
    solver = encoding.builder.solver()
    sat = solver.solve()
    if stats is not None:
        stats.merge_solver(solver)
        stats.count_answer(sat)
    if not sat:
        raise VerificationError(
            "BMC encoding admits no execution — encoder defect"
        )


def _violation_query(
    encoding: ProgramEncoding,
    disjuncts: List[int],
    stats: Optional[BmcStats],
):
    """Solve "some assertion literal holds"; returns a model or None."""
    b = encoding.builder
    lits = [lit for lit in disjuncts if lit != b.FALSE]
    if not lits:
        return None
    solver = b.solver(extra=[lits])
    sat = solver.solve()
    if stats is not None:
        stats.merge_solver(solver)
        stats.count_answer(sat)
    return solver.value_of if sat else None


def _write_once_violations(
    encoding: ProgramEncoding,
    initial_values: Dict[int, int],
    locs: FrozenSet[int],
    stats: Optional[BmcStats],
) -> Tuple[str, ...]:
    b = encoding.builder
    disjuncts: List[int] = []
    for loc in sorted(locs):
        hits = encoding.writes_at(loc)
        if initial_values.get(loc, 0) != 0:
            disjuncts.extend(lit for _, lit in hits)
        for i, (_, lit1) in enumerate(hits):
            for _, lit2 in hits[i + 1:]:
                disjuncts.append(b.and_gate((lit1, lit2)))
    model = _violation_query(encoding, disjuncts, stats)
    if model is None:
        return ()
    found: List[str] = []
    for loc in sorted(locs):
        hits = [
            (w, lit) for w, lit in encoding.writes_at(loc) if model(lit)
        ]
        init = initial_values.get(loc, 0)
        if init != 0 and hits:
            found.append(
                f"kernel PT entry {loc:#x} (initially {init:#x}) "
                f"overwritten by CPU {hits[0][0].tid}"
            )
        if len(hits) > 1:
            found.append(
                f"kernel PT entry {loc:#x} written {len(hits)} times "
                f"(CPUs {sorted({w.tid for w, _ in hits})})"
            )
    return tuple(sorted(set(found)))


def _isolation_violations(
    encoding: ProgramEncoding,
    kernel_locs: FrozenSet[int],
    user_tids: FrozenSet[int],
    stats: Optional[BmcStats],
) -> Tuple[str, ...]:
    disjuncts: List[int] = []
    user_writes = [w for w in encoding.writes if w.tid in user_tids]
    for w in user_writes:
        for loc in sorted(kernel_locs & encoding.loc_domain(w.idx)):
            disjuncts.append(encoding.loc_ind[w.idx][loc])
    model = _violation_query(encoding, disjuncts, stats)
    if model is None:
        return ()
    found = set()
    for w in user_writes:
        for loc in sorted(kernel_locs & encoding.loc_domain(w.idx)):
            if model(encoding.loc_ind[w.idx][loc]):
                values = [
                    v for v, lit in encoding.val_ind[w.idx].items()
                    if model(lit)
                ]
                found.add(
                    f"user CPU {w.tid} wrote kernel location {loc:#x} "
                    f"(value {values[0]:#x})"
                )
    return tuple(sorted(found))


def _condition_result(
    encoding: ProgramEncoding,
    monitor,
    stats: Optional[BmcStats],
) -> ConditionResult:
    """One monitor's verdict, decided by SAT over *encoding*."""
    kind = monitor.kind
    size = (
        f"{encoding.builder.num_clauses} clauses / "
        f"{encoding.builder.num_vars} variables"
    )
    if kind == "drf_kernel":
        # The fragment has no Pull/Push and the gate rejects configs
        # with owned-access requirements, so ownership panics cannot
        # occur: the condition holds on every execution by construction.
        return ConditionResult(
            condition=WDRFCondition.DRF_KERNEL,
            holds=True,
            exhaustive=encoding.complete,
            evidence=(
                f"BMC: no ownership transfers in the straight-line "
                f"fragment ({size})",
            ),
        )
    if kind == "barrier_misuse":
        dynamic = ConditionResult(
            condition=WDRFCondition.NO_BARRIER_MISUSE,
            holds=True,
            exhaustive=encoding.complete,
            evidence=(
                f"BMC: pull barrier-fulfillment vacuous without "
                f"ownership transfers ({size})",
            ),
        )
        static = getattr(monitor, "_static", None)
        if static is None:
            return dynamic
        return ConditionResult(
            condition=WDRFCondition.NO_BARRIER_MISUSE,
            holds=static.holds and dynamic.holds,
            exhaustive=static.exhaustive and dynamic.exhaustive,
            evidence=static.evidence + dynamic.evidence,
            violations=static.violations + dynamic.violations,
        )
    if kind == "write_once":
        violations = _write_once_violations(
            encoding, monitor._init, monitor._locs, stats
        )
        return ConditionResult(
            condition=WDRFCondition.WRITE_ONCE_KERNEL_MAPPING,
            holds=not violations,
            exhaustive=True if violations else encoding.complete,
            evidence=(
                f"BMC: {len(encoding.writes)} writes checked against "
                f"{len(monitor._locs)} kernel PT entries ({size})",
            ),
            violations=violations,
        )
    if kind == "memory_isolation":
        dynamic = _isolation_violations(
            encoding, monitor._kernel_locs, monitor._user_tids, stats
        )
        violations = monitor._static_violations + dynamic
        return ConditionResult(
            condition=monitor._condition,
            holds=not violations,
            exhaustive=True if dynamic else encoding.complete,
            evidence=monitor._evidence,
            violations=violations,
        )
    raise Unsupported(f"monitor kind {kind!r} not encodable")


def bmc_condition_results(
    program: Program,
    cfg: ModelConfig,
    requests: Sequence[Tuple[str, object]],
    cache: bool = True,
    stats: Optional[BmcStats] = None,
) -> Dict[str, ConditionResult]:
    """Verdicts for one fused request group, decided by BMC.

    *requests* is the verifier's ``(name, PassRequest)`` list; every
    request shares *cfg*.  Honors ``REPRO_BMC_DEPTH`` /
    ``REPRO_BMC_INDUCTION``: with a bound below the program diameter
    the check climbs the depth ladder only in induction mode, otherwise
    it reports bounded (non-exhaustive) clean verdicts.
    """
    depth = config.get("bmc_depth")
    if depth is None or _covers_program(program, depth):
        depths: List[Optional[int]] = [None]
    elif config.get("bmc_induction"):
        diameter = max(
            (len(t.instrs) for t in program.threads), default=0
        )
        depths = list(range(depth, diameter + 1))
    else:
        depths = [depth]

    monitors = [plan.monitor for _, plan in requests]
    query = "conditions:" + ",".join(
        f"{name}={plan.monitor.fingerprint()}"
        for name, plan in requests
    ) + f":depths={depths!r}"

    def compute() -> Tuple[Tuple[str, ConditionResult], ...]:
        results: Dict[str, ConditionResult] = {}
        for rung in depths:
            encoding = ProgramEncoding(program, cfg, (), depth=rung)
            if stats is not None:
                stats.merge_encoding(encoding)
            _assert_consistent(encoding, stats)
            results = {
                name: _condition_result(encoding, plan.monitor, stats)
                for name, plan in requests
            }
            if any(not r.holds for r in results.values()):
                break  # a violation at any depth is definitive
            if all(r.exhaustive for r in results.values()):
                break
        return tuple(results.items())

    if not cache:
        return dict(compute())
    key = bmc_query_key(program, cfg, (), query)
    return dict(cached_bmc_query(key, compute))


# ----------------------------------------------------------------------
# counterexample replay


def _witness_predicate(monitor):
    """Operational state predicate reproducing *monitor*'s violation."""
    kind = monitor.kind
    if kind == "write_once":
        locs, init = monitor._locs, monitor._init

        def write_once_violated(state) -> bool:
            per_loc: Dict[int, int] = {}
            for msg in state.memory:
                if msg.loc in locs:
                    per_loc[msg.loc] = per_loc.get(msg.loc, 0) + 1
            return any(
                count > 1 or init.get(loc, 0) != 0
                for loc, count in per_loc.items()
            )

        return write_once_violated
    if kind == "memory_isolation":
        kernel_locs = monitor._kernel_locs
        user_tids = monitor._user_tids

        def isolation_violated(state) -> bool:
            return any(
                msg.tid in user_tids and msg.loc in kernel_locs
                for msg in state.memory
            )

        return isolation_violated
    return None


def bmc_witness_trace(
    program: Program,
    cfg: ModelConfig,
    monitor,
    observe_locs: Optional[Sequence[int]] = None,
) -> Optional[ExecutionTrace]:
    """Replay a BMC violation through the operational engine.

    Searches for an execution whose final timeline exhibits the same
    class of violation the solver found, and returns the step-by-step
    :class:`ExecutionTrace` (rendered by ``obs.render`` like any
    exploration counterexample).  Returns None when the monitor kind
    has no dynamic violations or no operational execution reproduces
    one — the latter would mean the solver over-approximated, a
    backend bug.
    """
    state_predicate = _witness_predicate(monitor)
    if state_predicate is None:
        return None
    return find_execution(
        program,
        cfg,
        predicate=lambda behavior: True,
        observe_locs=observe_locs,
        state_predicate=state_predicate,
    )
