"""The coverage-guided differential fuzzing loop.

:func:`run_fuzz` ties the harness together: it draws genomes (fresh
random ones, or mutations of genomes that previously reached new
structural coverage), runs each through the profile's conformance
oracles, shrinks any disagreement to a 1-minimal counterexample, and
persists it to the corpus directory.  The loop is a pure function of
``FuzzConfig.seed`` when budget-bounded: program *i* is generated from
the RNG stream ``derive_rng(seed, "gen", i)`` regardless of pool state
or oracle order, so CI failures replay locally with the same seed.

Heavy oracles (``fuse`` for sync genomes, pool-vs-serial ``jobs``
agreement for data genomes) run every ``heavy_every`` programs rather
than on each one: they multiply exploration cost without widening the
input space, so they are sampled.  The ``jobs`` oracle additionally
only runs from a top-level (non-pooled) engine, as it spawns its own
worker pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.conformance.corpus import save_finding
from repro.conformance.coverage import CoverageMap
from repro.conformance.genome import (
    PROFILES,
    Genome,
    build,
    derive_rng,
    mutate,
    random_genome,
    shared_locations,
)
from repro.conformance.oracles import check_genome
from repro.conformance.shrink import shrink
from repro.memory.cache import cached_explore
from repro.memory.semantics import PROMISING_ARM, SC
from repro.obs import metrics, tracer
from repro.vrm.conditions import PassRequest
from repro.vrm.drf_kernel import plan_drf_kernel

__all__ = [
    "FuzzConfig", "FuzzFinding", "FuzzReport", "fuzz_parallel", "run_fuzz",
]

#: Cap on the mutation pool so a long run's pool stays representative
#: of *recent* coverage frontiers rather than growing without bound.
_POOL_CAP = 64


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing run."""

    seed: int = 0
    budget: Optional[int] = 50
    minutes: Optional[float] = None
    profiles: Tuple[str, ...] = PROFILES
    corpus_dir: Optional[str] = None
    shrink: bool = True
    shrink_max_evals: int = 400
    heavy_every: int = 8
    jobs_oracle: bool = True
    mutation_rate: float = 0.5
    max_findings: int = 10
    start_index: int = 0


@dataclass(frozen=True)
class FuzzFinding:
    """One persisted disagreement: where it came from and what survived
    shrinking."""

    seed: int
    index: int
    profile: str
    oracle: str
    detail: str
    genome: Genome
    shrunk: Optional[Genome]
    corpus_path: Optional[str]

    def describe(self) -> str:
        """One line naming the program and the failed oracle."""
        size = self.genome.size()
        shrunk = (
            f", shrunk to {self.shrunk.size()} ops"
            if self.shrunk is not None else ""
        )
        return (
            f"seed {self.seed} program {self.index} ({self.profile}, "
            f"{size} ops{shrunk}): [{self.oracle}] {self.detail}"
        )


@dataclass
class FuzzReport:
    """Everything a fuzzing run learned."""

    config: FuzzConfig
    programs: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    elapsed: float = 0.0
    #: Checks a budget cut before they compared anything: neither
    #: findings nor agreements, so never shrunk or saved to the corpus.
    inconclusive: int = 0

    @property
    def ok(self) -> bool:
        """True when no oracle disagreed on any program."""
        return not self.findings

    def describe(self) -> str:
        """Human-readable run summary (programs, findings, coverage)."""
        lines = [
            f"conformance fuzz: {self.programs} programs "
            f"(seed {self.config.seed}, profiles "
            f"{'/'.join(self.config.profiles)}) in {self.elapsed:.1f}s",
            self.coverage.summary(),
        ]
        if self.findings:
            lines.append(f"{len(self.findings)} DISAGREEMENT(S):")
            lines.extend("  " + f.describe() for f in self.findings)
        elif self.inconclusive:
            lines.append("no oracle disagreed on a check it completed")
        else:
            lines.append(
                "all oracles agreed: containment, portability, "
                "equivalence, axiomatic agreement, engine-config "
                "identity, reduction soundness, monitor truth, "
                "vm discipline"
            )
        if self.inconclusive:
            lines.append(
                f"{self.inconclusive} check(s) INCONCLUSIVE: a search "
                f"budget cut them before they compared anything"
            )
        return "\n".join(lines)


def _record_principal_explorations(
    genome: Genome, coverage: CoverageMap
) -> None:
    """Fold the genome's principal exploration stats into the coverage
    report.  The oracles already ran these passes, so each call here is
    a memo hit — pure accounting, no extra search."""
    program = build(genome)
    if genome.profile == "sync":
        plan = plan_drf_kernel(program, shared_locations(genome))
        if isinstance(plan, PassRequest):
            coverage.record_exploration(
                cached_explore(program, plan.cfg, observe_locs=[])
            )
        return
    observe = sorted(program.initial_memory)
    coverage.record_exploration(
        cached_explore(program, SC, observe_locs=observe)
    )
    coverage.record_exploration(
        cached_explore(program, PROMISING_ARM, observe_locs=observe)
    )


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the differential conformance fuzzer.

    Stops at ``budget`` programs, at the ``minutes`` deadline, or when
    ``max_findings`` disagreements have been recorded — whichever comes
    first.  With ``minutes`` unset the run is fully deterministic in
    ``config.seed``.
    """
    budget = config.budget
    if budget is None and config.minutes is None:
        budget = 50
    deadline = (
        time.monotonic() + config.minutes * 60.0
        if config.minutes is not None else None
    )
    started = time.monotonic()
    report = FuzzReport(config=config)
    pool: List[Genome] = []
    index = config.start_index
    while True:
        if budget is not None and index >= config.start_index + budget:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if len(report.findings) >= config.max_findings:
            break
        profile = config.profiles[index % len(config.profiles)]
        rng = derive_rng(config.seed, "gen", index)
        pool_candidates = [g for g in pool if g.profile == profile]
        if pool_candidates and rng.random() < config.mutation_rate:
            genome = mutate(
                rng.choice(pool_candidates), rng, name=f"s{config.seed}i{index}"
            )
        else:
            genome = random_genome(
                profile, rng, name=f"s{config.seed}i{index}"
            )
        if report.coverage.observe(genome):
            pool.append(genome)
            if len(pool) > _POOL_CAP:
                pool.pop(0)
        heavy = config.heavy_every > 0 and index % config.heavy_every == 0
        oracles = None
        if heavy and not config.jobs_oracle:
            # Heavy minus the pool-spawning oracle (nested-pool guard).
            from repro.conformance.oracles import oracles_for

            oracles = tuple(
                o for o in oracles_for(profile, heavy=True) if o != "jobs"
            )
        if tracer.SINK is not None:
            with tracer.SINK.span(
                "fuzz_program", index=index, profile=profile,
                genome=genome.name,
            ):
                disagreements = check_genome(
                    genome, oracles=oracles, heavy=heavy
                )
        else:
            disagreements = check_genome(genome, oracles=oracles, heavy=heavy)
        _record_principal_explorations(genome, report.coverage)
        findings = [d for d in disagreements if not d.inconclusive]
        report.inconclusive += len(disagreements) - len(findings)
        if metrics.ENABLED:
            metrics.REGISTRY.counter("fuzz.programs").inc()
            if findings:
                metrics.REGISTRY.counter("fuzz.findings").inc(len(findings))
        for disagreement in findings:
            shrunk: Optional[Genome] = None
            if config.shrink:
                shrunk = shrink(
                    genome,
                    oracle=disagreement.oracle,
                    max_evals=config.shrink_max_evals,
                ).genome
            path = None
            if config.corpus_dir:
                path = save_finding(
                    config.corpus_dir, config.seed, index, genome,
                    disagreement, shrunk,
                )
            report.findings.append(FuzzFinding(
                seed=config.seed,
                index=index,
                profile=profile,
                oracle=disagreement.oracle,
                detail=disagreement.detail,
                genome=genome,
                shrunk=shrunk,
                corpus_path=path,
            ))
        report.programs += 1
        index += 1
    report.elapsed = time.monotonic() - started
    return report


def _run_chunk(config: FuzzConfig) -> FuzzReport:
    """Module-level (picklable) worker: one index range of a run."""
    return run_fuzz(config)


def fuzz_parallel(config: FuzzConfig, jobs: Optional[int]) -> FuzzReport:
    """Fan a budget-bounded run out over the process pool.

    The index range ``[start_index, start_index + budget)`` is split
    into contiguous chunks, one fuzzing loop per worker.  Because every
    program's RNG stream is addressed by its global index, the set of
    *fresh* genomes is identical to the serial run's; only the
    mutation-feedback genomes differ (each chunk grows its own coverage
    pool).  The result is still fully deterministic for a fixed
    ``(seed, budget, jobs)``.  The pool-spawning ``jobs`` oracle is
    disabled inside workers (no nested pools) — run it from a serial
    fuzz or rely on this fan-out itself exercising the pool.
    """
    from repro.parallel import parallel_map, resolve_jobs

    budget = config.budget if config.budget is not None else 50
    workers = resolve_jobs(jobs)
    if workers <= 1 or budget < 2 * workers or config.minutes is not None:
        return run_fuzz(config)
    chunk = (budget + workers - 1) // workers
    configs = []
    start = config.start_index
    while start < config.start_index + budget:
        size = min(chunk, config.start_index + budget - start)
        configs.append(replace(
            config, budget=size, start_index=start, jobs_oracle=False,
            minutes=None,
        ))
        start += size
    merged = FuzzReport(config=config)
    for part in parallel_map(_run_chunk, configs, jobs=workers):
        merged.programs += part.programs
        merged.inconclusive += part.inconclusive
        merged.findings.extend(part.findings)
        merged.coverage.merge(part.coverage)
        merged.elapsed = max(merged.elapsed, part.elapsed)
    merged.findings.sort(key=lambda f: f.index)
    return merged
