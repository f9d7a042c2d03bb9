"""Exploration-engine benchmark: POR, interning, memoization, fan-out.

Produces the numbers tracked across PRs in ``BENCH_exploration.json``:
wall time and states/second for the litmus corpus and ``verify_sekvm``,
serial vs. parallel, plus the single-threaded effect of partial-order
reduction and certification memoization on a promise-heavy workload.
Parallel entries record the :func:`repro.parallel.pool.plan_jobs`
decision so a disappointing "speedup" can be traced to the machine.
Used by the ``bench`` CLI subcommand and by
``benchmarks/test_checker_scalability.py``.

All measurements run with caching disabled (memo cleared, disk layer
off) so they time real exploration work, never cache hits.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Optional


@contextmanager
def _env(**overrides):
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update({k: v for k, v in overrides.items() if v is not None})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _fresh() -> None:
    from repro.memory.cache import clear_memory_cache

    clear_memory_cache()


def promise_heavy_program():
    """A workload dominated by promise certification: one thread issues
    three promisable stores, the other reads them all."""
    from repro.ir import ThreadBuilder, build_program

    x, y, z, w = 0x10, 0x20, 0x30, 0x40
    t0 = ThreadBuilder(0)
    t0.store(x, 1).store(y, 1).store(z, 1).load("r0", w)
    t1 = ThreadBuilder(1)
    t1.store(w, 1).load("a", x).load("b", y).load("c", z)
    return build_program(
        [t0, t1],
        observed={0: ["r0"], 1: ["a", "b", "c"]},
        initial_memory={x: 0, y: 0, z: 0, w: 0},
    )


def _time_corpus(
    jobs: Optional[int], por: bool, intern: bool = True
) -> Dict[str, float]:
    from repro.litmus.catalog import full_corpus
    from repro.litmus.runner import run_corpus

    _fresh()
    with _env(
        REPRO_EXPLORE_CACHE="0",
        REPRO_POR="1" if por else "0",
        REPRO_INTERN="1" if intern else "0",
        REPRO_SHARD="0",
    ):
        start = time.perf_counter()
        outcomes = run_corpus(full_corpus(), jobs=jobs, cache=False)
        wall = time.perf_counter() - start
    states = sum(o.sc.states_explored + o.rm.states_explored for o in outcomes)
    return {
        "wall_seconds": wall,
        "states": states,
        "states_per_second": states / wall if wall else 0.0,
        "tests": len(outcomes),
        "all_passed": all(o.passed for o in outcomes),
    }


def _time_promise_heavy(
    por: bool, intern: bool = True, memo: bool = True, shard: int = 0,
) -> Dict[str, float]:
    from repro.memory.exploration import explore
    from repro.memory.semantics import ModelConfig

    program = promise_heavy_program()
    cfg = ModelConfig(relaxed=True, max_promises_per_thread=3)
    with _env(
        REPRO_INTERN="1" if intern else "0",
        REPRO_CERT_MEMO="1" if memo else "0",
        REPRO_SHARD=str(shard),
    ):
        start = time.perf_counter()
        result = explore(program, cfg, por=por)
        wall = time.perf_counter() - start
    out = {
        "wall_seconds": wall,
        "states": result.states_explored,
        "states_per_second": result.states_explored / wall if wall else 0.0,
        "behaviors": len(result.behaviors),
        "complete": result.complete,
    }
    if result.stats is not None:
        out["engine_stats"] = result.stats.as_dict()
    return out


def _time_vm_corpus(featured: bool) -> Dict[str, float]:
    """The VM litmus families, explored with their feature gates as the
    catalog configures them (``featured=True``) or forcibly stripped
    (``featured=False`` — same programs on the seed semantics, the
    gates-closed cost baseline)."""
    import dataclasses

    from repro.litmus.catalog import vm_corpus
    from repro.litmus.runner import run_corpus

    tests = vm_corpus()
    if not featured:
        tests = [dataclasses.replace(t, vm_features=()) for t in tests]
    _fresh()
    with _env(REPRO_EXPLORE_CACHE="0", REPRO_SHARD="0"):
        start = time.perf_counter()
        outcomes = run_corpus(tests, jobs=None, cache=False)
        wall = time.perf_counter() - start
    states = sum(o.sc.states_explored + o.rm.states_explored for o in outcomes)
    out = {
        "wall_seconds": wall,
        "states": states,
        "states_per_second": states / wall if wall else 0.0,
        "tests": len(outcomes),
    }
    if featured:
        # Postconditions are calibrated for the featured configs only;
        # the stripped baseline intentionally misses the RM-observable
        # outcomes, so `all_passed` would be meaningless there.
        out["all_passed"] = all(o.passed for o in outcomes)
    return out


def _time_vm_matrix() -> Dict[str, float]:
    """One full verdict-matrix build (every feature combination)."""
    from repro.vrm.vm_matrix import build_matrix

    _fresh()
    with _env(REPRO_EXPLORE_CACHE="0", REPRO_SHARD="0"):
        start = time.perf_counter()
        matrix = build_matrix(cache=False)
        wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "rows": len(matrix["rows"]),
        "complete": all(r["complete"] for r in matrix["rows"]),
    }


def _time_sekvm(jobs: Optional[int]) -> Dict[str, float]:
    from repro.sekvm.verify import verify_sekvm

    _fresh()
    with _env(REPRO_EXPLORE_CACHE="0", REPRO_SHARD="0"):
        start = time.perf_counter()
        outcome = verify_sekvm(jobs=jobs)
        wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "cases": len(outcome.outcomes),
        "all_verified": outcome.all_verified,
    }


def _time_wdrf(fuse: bool) -> Dict[str, float]:
    """Time ``verify_wdrf`` over the SeKVM spec corpus, fused or not.

    ``fuse=False`` is the legacy pipeline — per-condition passes run to
    exhaustion, no monitor early-exit — so the ratio measures the whole
    streaming pipeline, not fusion alone.  Runs with the in-process
    memo *and* the disk cache off so both sides pay for every
    exploration (the memo would otherwise dedupe identical passes
    within the process and hide the fusion win), and includes the
    seeded-bug cases, where fail-fast monitors shine.
    """
    from repro.sekvm.ir_programs import kcore_buggy_cases, kcore_verified_cases
    from repro.vrm.verifier import VerifyStats, verify_wdrf

    cases = list(kcore_verified_cases(4)) + list(kcore_buggy_cases(4))
    _fresh()
    stats = VerifyStats()
    with _env(
        REPRO_EXPLORE_CACHE="0",
        REPRO_EXPLORE_MEMO="0",
        REPRO_SHARD="0",
    ):
        start = time.perf_counter()
        reports = [
            verify_wdrf(case.spec, fuse=fuse, collect=stats)
            for case in cases
        ]
        wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "cases": len(cases),
        "as_expected": all(
            report.all_verified == case.should_verify
            for case, report in zip(cases, reports)
        ),
        "explorations": stats.explorations,
        "states": stats.states_explored,
        "states_per_second": stats.states_explored / wall if wall else 0.0,
        "fused_conditions": stats.fused_conditions,
        "monitor_stops": stats.monitor_stops,
        "stopped_early": stats.stopped_early,
    }


def _time_portability() -> Dict:
    """Per-model exploration cost of the litmus corpus (SC/TSO/Arm).

    One pass over the catalog explores every test under all three
    portfolio configurations with caching off, so the per-model totals
    are directly comparable — same programs, same observation sets,
    only the architecture differs.  The same pass certifies the
    containment chain SC ⊆ TSO ⊆ Arm on the explored behavior sets
    (the bench-time mirror of ``tests/corpus/portability_verdicts.json``).
    """
    from repro.litmus.catalog import full_corpus
    from repro.litmus.runner import litmus_configs, tso_config
    from repro.memory.cache import cached_explore

    tests = list(full_corpus())
    totals: Dict[str, Dict[str, float]] = {
        m: {"wall_seconds": 0.0, "states": 0} for m in ("sc", "tso", "arm")
    }
    certified = True
    _fresh()
    with _env(REPRO_EXPLORE_CACHE="0", REPRO_SHARD="0"):
        for test in tests:
            sc_cfg, rm_cfg = litmus_configs(test)
            configs = {
                "sc": sc_cfg, "tso": tso_config(test), "arm": rm_cfg,
            }
            observe = sorted(test.program.initial_memory)
            results = {}
            for model, cfg in configs.items():
                start = time.perf_counter()
                results[model] = cached_explore(
                    test.program, cfg, observe_locs=observe, cache=False
                )
                totals[model]["wall_seconds"] += time.perf_counter() - start
                totals[model]["states"] += results[model].states_explored
            certified = certified and not (
                results["sc"].behaviors - results["tso"].behaviors
            ) and not (
                results["tso"].behaviors - results["arm"].behaviors
            )
    for record in totals.values():
        record["states_per_second"] = _ratio(
            record["states"], record["wall_seconds"]
        )
    return {
        "tests": len(tests),
        "models": totals,
        "containment_certified": certified,
        # What each step down the portfolio costs: TSO pays for the
        # store-buffer interleavings, Arm for promise certification.
        "tso_cost_vs_sc": _ratio(
            totals["tso"]["wall_seconds"], totals["sc"]["wall_seconds"]
        ),
        "arm_cost_vs_tso": _ratio(
            totals["arm"]["wall_seconds"], totals["tso"]["wall_seconds"]
        ),
    }


def bmc_explosion_spec():
    """A wDRF spec whose exploration state space explodes but whose CNF
    stays tiny: two CPUs each initialize three private kernel PT entries
    and read back one, so relaxed exploration certifies thousands of
    promise interleavings while the write-once/isolation queries are a
    few hundred clauses.  Exploration still *completes* within the
    default budgets — both backends reach the same verdict, the wall
    clock is the only difference — which is exactly the shape the
    cost-model router must win on."""
    from repro.ir import PTKind, ThreadBuilder, build_program
    from repro.vrm.verifier import WDRFSpec

    tbs, init, pts = [], {}, []
    for t in range(2):
        tb = ThreadBuilder(t)
        for s in range(3):
            loc = 0x1000 + 0x10 * (t * 3 + s)
            tb.store(loc, t + 1, pt_kind=PTKind.KERNEL)
            init[loc] = 0
            pts.append(loc)
        tb.load(f"r{t}", 0x1000)
        tbs.append(tb)
    program = build_program(tbs, initial_memory=init, name="bmc-explosion")
    return WDRFSpec(program=program, kernel_pt_locs=tuple(pts))


def _time_wdrf_backend(backend: str) -> Dict[str, float]:
    """Time ``verify_wdrf`` on the explosion spec under one backend."""
    from repro.vrm.verifier import VerifyStats, verify_wdrf

    spec = bmc_explosion_spec()
    _fresh()
    stats = VerifyStats()
    with _env(
        REPRO_EXPLORE_CACHE="0",
        REPRO_BACKEND=backend,
        REPRO_SHARD="0",
    ):
        start = time.perf_counter()
        report = verify_wdrf(spec, collect=stats)
        wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "all_hold": report.all_hold,
        "explorations": stats.explorations,
        "states": stats.states_explored,
        "bmc_passes": stats.bmc_passes,
    }


def _time_bmc_litmus() -> Dict[str, float]:
    """Solve every encodable litmus test with the BMC backend alone."""
    from repro.litmus.catalog import full_corpus
    from repro.litmus.runner import SC_CFG, rm_config
    from repro.smt.backend import BmcStats, bmc_explore, bmc_supported
    from repro.smt.encode import Unsupported

    stats = BmcStats()
    solved = skipped = 0
    _fresh()
    with _env(REPRO_EXPLORE_CACHE="0"):
        start = time.perf_counter()
        for test in full_corpus():
            observe = sorted(loc for loc, _ in test.memory_condition)
            for cfg in (SC_CFG, rm_config(test.max_promises)):
                if bmc_supported(test.program, cfg) is not None:
                    skipped += 1
                    continue
                try:
                    bmc_explore(
                        test.program, cfg, observe, cache=False, stats=stats
                    )
                    solved += 1
                except Unsupported:
                    skipped += 1
        wall = time.perf_counter() - start
    out = stats.as_dict()
    out.update({
        "wall_seconds": wall,
        "queries_solved": solved,
        "queries_skipped": skipped,
        "clauses_per_second": stats.clauses / wall if wall else 0.0,
    })
    return out


def _time_serve(
    n_jobs: int = 60, unique: int = 6, clients: int = 8
) -> Dict:
    """The serving layer on a duplicate-heavy synthetic workload.

    Baseline: every job executed sequentially with the in-process memo
    cleared per job and all caches off — the cost profile of one
    ``verify`` CLI invocation per request (minus interpreter startup,
    so the comparison is conservative).  Served: the same job list over
    real HTTP against an in-process server with the hot tier on and the
    engine caches still off, so all the throughput comes from the
    serving layer's dedup (hot tier + coalescing + warm memo), none
    from the persistent engine cache.  Served verdicts are checked
    bit-identical (behavior digests) to the direct runs.
    """
    import asyncio

    from repro.serve.jobs import execute_job, parse_job
    from repro.serve.traffic import run_traffic, synthetic_workload

    jobs = synthetic_workload(n_jobs=n_jobs, unique=unique)
    with _env(
        REPRO_EXPLORE_CACHE="0",
        REPRO_SERVE_DISK="0",
        REPRO_SHARD="0",
    ):
        start = time.perf_counter()
        direct = []
        for job in jobs:
            _fresh()
            direct.append(execute_job(parse_job(job).payload))
        sequential_wall = time.perf_counter() - start

        async def _served():
            from repro.serve.server import ServeConfig, VerificationServer

            server = VerificationServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                return await run_traffic(
                    server.config.host, server.port, jobs,
                    clients=clients, collect_results=True,
                )
            finally:
                await server.stop()

        _fresh()
        report = asyncio.run(_served())

    served = report.pop("results")
    verdicts_identical = all(
        body is not None
        and body.get("result", {}).get("behavior_digest")
        == direct[i]["behavior_digest"]
        for i, body in enumerate(served)
    )
    stats = report["server"]
    return {
        "jobs": n_jobs,
        "unique_specs": unique,
        "repeat_ratio": 1.0 - (unique / n_jobs),
        "clients": clients,
        "sequential": {
            "wall_seconds": sequential_wall,
            "jobs_per_second": _ratio(n_jobs, sequential_wall),
        },
        "served": {
            "wall_seconds": report["wall_seconds"],
            "jobs_per_second": report["throughput_jobs_per_s"],
            "p50_ms": report["p50_ms"],
            "p99_ms": report["p99_ms"],
            "failures": report["failures"],
        },
        "throughput_speedup": _ratio(
            report["throughput_jobs_per_s"], _ratio(n_jobs, sequential_wall)
        ),
        "cache_hit_rate": stats["cache_hit_rate"],
        "hot_hits": stats["counters"]["hot_hits"],
        "coalesced": stats["counters"]["coalesced"],
        "computed": stats["counters"]["computed"],
        "verdicts_identical": verdicts_identical,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _speedup(serial_wall: float, parallel_wall: float) -> Dict:
    """A v4 speedup record: the ratio plus the context that explains it.

    On a single-core runner a process fan-out cannot win, so a <1
    "speedup" there is the machine, not a regression — the record says
    so explicitly (``degraded``) instead of publishing a bare float
    that reads like a perf loss.
    """
    cpus = os.cpu_count() or 1
    out = {"ratio": _ratio(serial_wall, parallel_wall), "cpu_count": cpus}
    if cpus == 1:
        out["degraded"] = "single-core-runner"
    return out


def bench_exploration(
    jobs: int = 4,
    shard_jobs: Optional[int] = None,
    only: Optional[str] = None,
) -> Dict:
    """Measure the exploration engine end to end.

    Returns a JSON-ready dict (schema v8): litmus corpus serial vs.
    ``jobs``-way parallel, POR on vs. off (single-threaded),
    promise-heavy POR/memo effect plus ``shard_jobs``-way frontier
    sharding, ``verify_sekvm`` serial vs. parallel, the SAT/BMC
    backend (cost-routed vs. forced-exploration wall time on a
    state-explosion spec, plus a solver sweep over the litmus corpus),
    and the serving layer on a duplicate-heavy synthetic workload
    (throughput vs. sequential execution, latency percentiles, cache
    hit rate — :func:`_time_serve`), and the relaxed-virtual-memory
    section (the VM litmus families featured vs. gates-stripped plus
    one verdict-matrix build — :func:`_time_vm_corpus` /
    :func:`_time_vm_matrix`), and the model-portfolio section (the
    litmus corpus explored under SC/TSO/Arm with the containment chain
    certified in the same pass — :func:`_time_portability`).  Each
    parallel section records its own ``cpu_count`` and its speedups
    are dicts (:func:`_speedup`) so single-core numbers are annotated,
    not misread as regressions.  ``only`` restricts the run to one
    section (``litmus_corpus``/``promise_heavy``/``wdrf``/
    ``verify_sekvm``/``bmc``/``serve``/``vm``/``portability``) — the
    CI smoke path.
    """
    from repro.parallel.pool import plan_jobs, resolve_shard_jobs

    cpus = os.cpu_count() or 1
    shards = resolve_shard_jobs(shard_jobs)
    if shards <= 1:
        # Always track the sharded engine, even unrequested: use the
        # real fan-out on multi-core machines (capped at 4) so a
        # multi-core bench run publishes a genuine shard speedup, and
        # the 2-shard floor elsewhere (the _speedup record annotates
        # single-core results as degraded).
        shards = max(2, min(4, cpus))
    results: Dict = {
        "schema": "BENCH_exploration/v8",
        "cpu_count": cpus,
        "jobs": jobs,
        "shard_jobs": shards,
    }

    def wanted(section: str) -> bool:
        return only is None or only == section

    if wanted("litmus_corpus"):
        corpus_serial = _time_corpus(jobs=None, por=True)
        corpus_baseline = _time_corpus(jobs=None, por=False, intern=False)
        corpus_parallel = _time_corpus(jobs=jobs, por=True)
        results["litmus_corpus"] = {
            "cpu_count": cpus,
            "serial": corpus_serial,
            "serial_baseline": corpus_baseline,
            "parallel": corpus_parallel,
            "jobs_plan": plan_jobs(jobs, corpus_parallel["tests"])._asdict(),
            "parallel_speedup": _speedup(
                corpus_serial["wall_seconds"], corpus_parallel["wall_seconds"]
            ),
            # POR+interning runs single-threaded on both sides, so its
            # ratio is machine-independent — but the per-section
            # cpu_count rides along in v4 regardless.
            "por_speedup": {
                "ratio": _ratio(
                    corpus_baseline["wall_seconds"],
                    corpus_serial["wall_seconds"],
                ),
                "cpu_count": cpus,
            },
        }

    if wanted("promise_heavy"):
        # "optimized" = POR + interning + certification memo; "no_memo"
        # drops only the memo (isolating its effect); "baseline" drops
        # POR, interning, and memo (the v1 engine); "sharded" is the
        # optimized engine fanned out over shard workers.
        ph_optimized = _time_promise_heavy(por=True)
        ph_no_memo = _time_promise_heavy(por=True, memo=False)
        ph_base = _time_promise_heavy(por=False, intern=False, memo=False)
        ph_sharded = _time_promise_heavy(por=True, shard=shards)
        results["promise_heavy"] = {
            "cpu_count": cpus,
            "optimized": ph_optimized,
            "no_memo": ph_no_memo,
            "baseline": ph_base,
            "sharded": ph_sharded,
            "memo_speedup": _ratio(
                ph_no_memo["wall_seconds"], ph_optimized["wall_seconds"]
            ),
            "overall_speedup": _ratio(
                ph_base["wall_seconds"], ph_optimized["wall_seconds"]
            ),
            "overall_state_reduction": _ratio(
                ph_base["states"], ph_optimized["states"]
            ),
            "shard_speedup": _speedup(
                ph_optimized["wall_seconds"], ph_sharded["wall_seconds"]
            ),
        }

    if wanted("wdrf"):
        wdrf_fused = _time_wdrf(fuse=True)
        wdrf_unfused = _time_wdrf(fuse=False)
        results["wdrf"] = {
            "cpu_count": cpus,
            "fused": wdrf_fused,
            "unfused": wdrf_unfused,
            "fuse_speedup": _ratio(
                wdrf_unfused["wall_seconds"], wdrf_fused["wall_seconds"]
            ),
            "state_reduction": _ratio(
                wdrf_unfused["states"], wdrf_fused["states"]
            ),
        }

    if wanted("bmc"):
        bmc_auto = _time_wdrf_backend("auto")
        bmc_forced_explore = _time_wdrf_backend("explore")
        results["bmc"] = {
            "cpu_count": cpus,
            "explosion_spec": {
                "auto": bmc_auto,
                "explore": bmc_forced_explore,
                # Pure ratio, not a _speedup record: both sides run
                # single-threaded, so the machine cannot degrade it.
                "router_speedup": _ratio(
                    bmc_forced_explore["wall_seconds"],
                    bmc_auto["wall_seconds"],
                ),
            },
            "litmus_solver": _time_bmc_litmus(),
        }

    if wanted("serve"):
        results["serve"] = _time_serve()

    if wanted("vm"):
        vm_featured = _time_vm_corpus(featured=True)
        vm_stripped = _time_vm_corpus(featured=False)
        results["vm"] = {
            "cpu_count": cpus,
            "featured": vm_featured,
            "gates_stripped": vm_stripped,
            # Pure single-threaded ratio: what turning the feature
            # gates on costs on the programs built to exercise them.
            "feature_cost": _ratio(
                vm_featured["wall_seconds"], vm_stripped["wall_seconds"]
            ),
            "verdict_matrix": _time_vm_matrix(),
        }

    if wanted("portability"):
        results["portability"] = _time_portability()

    if wanted("verify_sekvm"):
        sekvm_serial = _time_sekvm(jobs=None)
        sekvm_parallel = _time_sekvm(jobs=jobs)
        results["verify_sekvm"] = {
            "cpu_count": cpus,
            "serial": sekvm_serial,
            "parallel": sekvm_parallel,
            "jobs_plan": plan_jobs(jobs, sekvm_parallel["cases"])._asdict(),
            "parallel_speedup": _speedup(
                sekvm_serial["wall_seconds"], sekvm_parallel["wall_seconds"]
            ),
        }

    return results


def write_bench_json(path: str, results: Dict) -> None:
    """Write benchmark *results* to *path* (pretty-printed, atomic)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _fmt_speedup(record) -> str:
    """Render a v4 speedup dict (or a legacy v3 float) for humans."""
    if isinstance(record, dict):
        tag = f"{record['ratio']:.2f}x"
        if record.get("degraded"):
            tag += f" [{record['degraded']}]"
        return tag
    return f"{record:.2f}x"


def format_bench(results: Dict) -> str:
    """Human-readable summary of :func:`bench_exploration` output.

    Tolerates partial results (``bench_exploration(only=...)``) by
    printing only the sections present.
    """
    lines = [
        f"exploration benchmark ({results['cpu_count']} CPUs, "
        f"jobs={results['jobs']}, "
        f"shard_jobs={results.get('shard_jobs', 1)})",
    ]
    corpus = results.get("litmus_corpus")
    if corpus is not None:
        lines += [
            f"  litmus corpus   serial {corpus['serial']['wall_seconds']:.2f}s "
            f"({corpus['serial']['states_per_second']:,.0f} states/s), "
            f"parallel {corpus['parallel']['wall_seconds']:.2f}s "
            f"(speedup {_fmt_speedup(corpus['parallel_speedup'])})",
            f"  POR+interning   {_fmt_speedup(corpus['por_speedup'])} wall "
            f"vs unreduced/uninterned serial corpus",
        ]
    ph = results.get("promise_heavy")
    if ph is not None:
        lines.append(
            f"  promise-heavy   optimized {ph['optimized']['wall_seconds']:.2f}s "
            f"vs no-memo {ph['no_memo']['wall_seconds']:.2f}s "
            f"(memo {ph['memo_speedup']:.2f}x) vs "
            f"baseline {ph['baseline']['wall_seconds']:.2f}s "
            f"(overall {ph['overall_speedup']:.2f}x, "
            f"{ph['overall_state_reduction']:.2f}x fewer states)"
        )
        if "sharded" in ph:
            lines.append(
                f"  frontier shards sharded "
                f"{ph['sharded']['wall_seconds']:.2f}s "
                f"(speedup {_fmt_speedup(ph['shard_speedup'])})"
            )
    wdrf = results.get("wdrf")
    if wdrf is not None:
        lines.append(
            f"  wdrf fusion     fused {wdrf['fused']['wall_seconds']:.2f}s "
            f"({wdrf['fused']['explorations']} passes) vs "
            f"unfused {wdrf['unfused']['wall_seconds']:.2f}s "
            f"({wdrf['unfused']['explorations']} passes): "
            f"{wdrf['fuse_speedup']:.2f}x wall, "
            f"{wdrf['state_reduction']:.2f}x fewer states"
        )
    bmc = results.get("bmc")
    if bmc is not None:
        exp = bmc["explosion_spec"]
        sweep = bmc["litmus_solver"]
        lines += [
            f"  bmc router      auto {exp['auto']['wall_seconds']:.2f}s "
            f"({exp['auto']['bmc_passes']} SAT pass(es)) vs forced-explore "
            f"{exp['explore']['wall_seconds']:.2f}s "
            f"({exp['explore']['states']} states): "
            f"{exp['router_speedup']:.1f}x on the explosion spec",
            f"  bmc solver      {sweep['queries_solved']} litmus queries in "
            f"{sweep['wall_seconds']:.2f}s "
            f"({sweep['clauses_per_second']:,.0f} clauses/s, "
            f"{sweep['outcomes']} outcomes enumerated)",
        ]
    serve = results.get("serve")
    if serve is not None:
        lines.append(
            f"  serve           {serve['jobs']} jobs "
            f"({serve['repeat_ratio']:.0%} repeats, "
            f"{serve['clients']} clients): "
            f"{serve['served']['wall_seconds']:.2f}s served vs "
            f"{serve['sequential']['wall_seconds']:.2f}s sequential "
            f"({serve['throughput_speedup']:.1f}x throughput, "
            f"hit rate {serve['cache_hit_rate']:.0%}, "
            f"p50 {serve['served']['p50_ms']:.1f}ms / "
            f"p99 {serve['served']['p99_ms']:.1f}ms, "
            f"verdicts identical: {serve['verdicts_identical']})"
        )
    vm = results.get("vm")
    if vm is not None:
        lines.append(
            f"  vm features     featured {vm['featured']['wall_seconds']:.2f}s "
            f"({vm['featured']['tests']} tests, "
            f"all passed: {vm['featured']['all_passed']}) vs "
            f"gates-stripped {vm['gates_stripped']['wall_seconds']:.2f}s "
            f"({vm['feature_cost']:.2f}x cost); verdict matrix "
            f"{vm['verdict_matrix']['rows']} rows in "
            f"{vm['verdict_matrix']['wall_seconds']:.2f}s"
        )
    portability = results.get("portability")
    if portability is not None:
        models = portability["models"]
        lines.append(
            f"  portability     {portability['tests']} litmus tests: "
            f"sc {models['sc']['wall_seconds']:.2f}s, "
            f"tso {models['tso']['wall_seconds']:.2f}s "
            f"({portability['tso_cost_vs_sc']:.2f}x sc), "
            f"arm {models['arm']['wall_seconds']:.2f}s "
            f"({portability['arm_cost_vs_tso']:.2f}x tso); "
            f"SC ⊆ TSO ⊆ Arm certified: "
            f"{portability['containment_certified']}"
        )
    sekvm = results.get("verify_sekvm")
    if corpus is not None and sekvm is not None:
        lines.append(
            f"  jobs plan       corpus: {corpus['jobs_plan']['workers']} "
            f"worker(s) ({corpus['jobs_plan']['reason']}), sekvm: "
            f"{sekvm['jobs_plan']['workers']} worker(s) "
            f"({sekvm['jobs_plan']['reason']})"
        )
    if sekvm is not None:
        lines.append(
            f"  verify_sekvm    serial {sekvm['serial']['wall_seconds']:.2f}s, "
            f"parallel {sekvm['parallel']['wall_seconds']:.2f}s "
            f"(speedup {_fmt_speedup(sekvm['parallel_speedup'])})"
        )
    return "\n".join(lines)
