"""Delta-debugging counterexample shrinker for conformance findings.

When an oracle fires on a fuzzed genome, the raw program is rarely the
story: most of its operations are bystanders.  :func:`shrink` reduces
the genome to a *1-minimal* one — removing any single remaining
operation (or thread) makes the disagreement vanish — using the classic
ddmin chunk schedule followed by a singleton fixpoint, then simplifies
the surviving operands (values to 1, locations toward index 0).

The predicate is "the same oracle still fires", evaluated through
:func:`repro.conformance.oracles.check_genome` restricted to the
triggering oracle, so shrinking never wanders onto a *different* bug.
Everything is deterministic — candidate order is fixed and the oracles
themselves are deterministic — and bounded by ``max_evals`` predicate
evaluations so a pathological genome cannot stall a fuzzing run.
Profile validity (:func:`repro.conformance.genome.valid`) is enforced
on every candidate: the shrinker will not, for example, delete a sync
genome's last ``pull`` and "minimize" the finding into the checker's
uninstrumented early-return.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.conformance.genome import Genome, valid
from repro.conformance.oracles import check_genome

__all__ = ["ShrinkResult", "oracle_predicate", "shrink"]

Predicate = Callable[[Genome], bool]


@dataclass(frozen=True)
class ShrinkResult:
    """The minimized genome plus the search's effort accounting."""

    genome: Genome
    evals: int
    removed_ops: int

    @property
    def size(self) -> int:
        """Size of the candidate genome (the shrinker minimizes this)."""
        return self.genome.size()


def oracle_predicate(oracle: str) -> Predicate:
    """The standard predicate: does *oracle* still fire on the genome?"""

    def predicate(genome: Genome) -> bool:
        """True when the candidate still reproduces the finding."""
        return any(
            d.oracle == oracle and not d.inconclusive
            for d in check_genome(genome, oracles=(oracle,))
        )

    return predicate


def _positions(genome: Genome) -> List[Tuple[int, int]]:
    return [
        (t, i)
        for t, ops in enumerate(genome.threads)
        for i in range(len(ops))
    ]


def _without(genome: Genome, removed: Sequence[Tuple[int, int]]) -> Genome:
    """The genome with the given (thread, index) positions deleted
    (empty threads are kept so thread indices stay stable)."""
    gone = set(removed)
    threads = tuple(
        tuple(op for i, op in enumerate(ops) if (t, i) not in gone)
        for t, ops in enumerate(genome.threads)
    )
    return Genome(
        profile=genome.profile,
        threads=threads,
        n_locations=genome.n_locations,
        name=genome.name + "-shrunk",
    )


class _Budget:
    def __init__(self, predicate: Predicate, max_evals: int):
        self._predicate = predicate
        self._max = max_evals
        self.evals = 0

    def holds(self, genome: Genome) -> bool:
        """Check a candidate against the original failure, memoized."""
        if self.exhausted or not valid(genome):
            return False
        self.evals += 1
        return self._predicate(genome)

    @property
    def exhausted(self) -> bool:
        """True when every smaller candidate has been tried."""
        return self.evals >= self._max


def _ddmin_ops(genome: Genome, budget: _Budget) -> Genome:
    """Classic ddmin over the flat operation list."""
    positions = _positions(genome)
    chunk = max(1, len(positions) // 2)
    while chunk >= 1 and not budget.exhausted:
        shrunk = False
        start = 0
        while start < len(positions):
            removed = positions[start:start + chunk]
            candidate = _without(genome, removed)
            if budget.holds(candidate):
                genome = candidate
                positions = _positions(genome)
                shrunk = True
                # Restart the sweep on the smaller genome.
                start = 0
            else:
                start += chunk
        if not shrunk:
            chunk //= 2
    return genome


def _singleton_fixpoint(genome: Genome, budget: _Budget) -> Genome:
    """Drop single ops (then whole threads) until 1-minimal."""
    changed = True
    while changed and not budget.exhausted:
        changed = False
        for pos in _positions(genome):
            candidate = _without(genome, [pos])
            if budget.holds(candidate):
                genome = candidate
                changed = True
                break
        if changed:
            continue
        for t, ops in enumerate(genome.threads):
            if not ops:
                continue
            candidate = _without(genome, [(t, i) for i in range(len(ops))])
            if budget.holds(candidate):
                genome = candidate
                changed = True
                break
    return genome


def _simplify_operands(genome: Genome, budget: _Budget) -> Genome:
    """Canonicalize surviving operands: values to 1, locations to 0."""
    for t, i in _positions(genome):
        op = genome.threads[t][i]
        for simplified in (
            replace(op, val=1, loc=0),
            replace(op, val=1),
            replace(op, loc=0),
        ):
            if simplified == op:
                continue
            threads = [list(ops) for ops in genome.threads]
            threads[t][i] = simplified
            candidate = Genome(
                profile=genome.profile,
                threads=tuple(tuple(ops) for ops in threads),
                n_locations=genome.n_locations,
                name=genome.name,
            )
            if budget.holds(candidate):
                genome = candidate
                break
    return genome


def shrink(
    genome: Genome,
    predicate: Optional[Predicate] = None,
    oracle: Optional[str] = None,
    max_evals: int = 400,
) -> ShrinkResult:
    """Minimize *genome* while *predicate* (or ``oracle`` firing) holds.

    Exactly one of ``predicate``/``oracle`` must be given.  The input
    genome is required to satisfy the predicate; the result is
    1-minimal with respect to single-operation deletion unless the
    ``max_evals`` budget ran out first (the partially shrunk genome is
    still returned — it satisfies the predicate at every step).
    """
    if (predicate is None) == (oracle is None):
        raise ValueError("pass exactly one of predicate= or oracle=")
    if predicate is None:
        predicate = oracle_predicate(oracle)
    budget = _Budget(predicate, max_evals)
    original_size = genome.size()
    genome = _ddmin_ops(genome, budget)
    genome = _singleton_fixpoint(genome, budget)
    genome = _simplify_operands(genome, budget)
    return ShrinkResult(
        genome=genome,
        evals=budget.evals,
        removed_ops=original_size - genome.size(),
    )
