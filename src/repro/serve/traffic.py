"""Synthetic serve traffic from the conformance fuzzer's generator.

The bench's serving claim is about *duplicate-heavy* load — thousands
of clients verifying overlapping kernels.  The conformance genome
generator (:mod:`repro.conformance.genome`) is the natural traffic
source: it draws small, valid, deterministic programs from seeded RNG
streams, so a workload is reproducible from ``(seed, n_jobs,
unique)`` alone.

:func:`synthetic_workload` builds a job list with a controlled repeat
ratio: ``unique`` distinct genomes cycled across ``n_jobs`` requests
(``unique=8, n_jobs=48`` → 83% repeats).  Repeats get *fresh display
names* — dedup must work on content, not labels.

:func:`run_traffic` drives a running :class:`~repro.serve.server.
VerificationServer` with N concurrent client coroutines over real HTTP
and reports latency percentiles, throughput, and the server's cache
accounting.  perfbench's ``serve_mixed`` workload draws its job mix from
:func:`synthetic_workload`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List

from repro.litmus.generate import derive_rng


def synthetic_workload(
    n_jobs: int = 48,
    unique: int = 8,
    seed: int = 0,
    profile: str = "plain",
    model: str = "rm",
) -> List[Dict[str, Any]]:
    """A duplicate-heavy job list: *unique* genomes cycled *n_jobs* times."""
    from repro.conformance.genome import random_genome

    genomes = [
        random_genome(
            profile,
            derive_rng(seed, f"serve-traffic-{i}"),
            n_threads=2, min_ops=3, max_ops=4, n_locations=2,
            name=f"traffic-{i}",
        )
        for i in range(unique)
    ]
    jobs: List[Dict[str, Any]] = []
    for i in range(n_jobs):
        genome = genomes[i % unique]
        # A repeat request renames the genome: content addressing must
        # see through display names for dedup to count.
        doc = genome.to_json()
        doc["name"] = f"traffic-{i % unique}-req{i}"
        jobs.append({
            "kind": "explore",
            "genome": doc,
            "model": model,
            "max_promises": 2,
            "backend": "explore",
        })
    return jobs


async def run_traffic(
    host: str,
    port: int,
    jobs: List[Dict[str, Any]],
    clients: int = 8,
    collect_results: bool = False,
) -> Dict[str, Any]:
    """Drive the server with *clients* concurrent HTTP clients.

    Each client coroutine pulls the next job off a shared list and
    submits it with ``wait=1``; per-job wall latencies feed the
    percentile report.  ``collect_results`` additionally returns the
    response bodies in job order (``"results"``) so the bench can
    assert served verdicts are identical to direct execution.
    """
    from repro.serve.client import get_stats, submit_job

    latencies: List[float] = []
    results: List[Any] = [None] * len(jobs)
    failures = 0
    index = {"next": 0}
    lock = asyncio.Lock()

    async def client() -> None:
        nonlocal failures
        while True:
            async with lock:
                i = index["next"]
                if i >= len(jobs):
                    return
                index["next"] = i + 1
            begin = time.perf_counter()
            status, body = await submit_job(host, port, jobs[i], wait=True)
            latencies.append(time.perf_counter() - begin)
            if collect_results:
                results[i] = body
            if status != 200:
                failures += 1

    begin = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(max(1, clients))))
    wall = time.perf_counter() - begin
    stats = await get_stats(host, port)
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

    report = {
        "jobs": len(jobs),
        "clients": clients,
        "failures": failures,
        "wall_seconds": wall,
        "throughput_jobs_per_s": (len(jobs) / wall) if wall > 0 else 0.0,
        "p50_ms": pct(0.50) * 1000.0,
        "p99_ms": pct(0.99) * 1000.0,
        "server": stats,
    }
    if collect_results:
        report["results"] = results
    return report
