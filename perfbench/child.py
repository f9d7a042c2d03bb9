"""One measured process: set up a workload, time it, check every verdict.

Started by ``perfbench/run.py`` in a fresh interpreter with a cleaned
environment; run it through that script, not directly.  The last line
of standard output is a JSON object the parent reads.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from perfbench import stats, tracing, workloads
from perfbench.hostspeed import CalibratedClock

#: Environment the parent sets; any other ``REPRO_*`` variable could
#: change what is measured, so the child refuses to run with one.
ALLOWED_REPRO_ENV = frozenset({"REPRO_EXPLORE_CACHE", "REPRO_EXPLORE_CACHE_DIR"})

#: A batch run makes at least this many passes, so every run holds at
#: least 200 verdicts and ``verdict_ms_p95`` has ten samples beyond it.
MIN_PASSES = 2

#: (field, module, function) of the engine defaults worth recording.
ENGINE_DEFAULTS = (
    ("por", "repro.memory.exploration", "por_default_enabled"),
    ("interning", "repro.memory.state", "interning_enabled"),
    ("cert_memo", "repro.memory.semantics", "cert_memo_enabled"),
    ("fusion", "repro.vrm.verifier", "fuse_default_enabled"),
    ("backend", "repro.smt.router", "backend_default"),
    ("model", "repro.memory.semantics", "env_model"),
    ("explore_memo", "repro.memory.cache", "memo_enabled"),
    ("explore_disk_cache", "repro.memory.cache", "cache_enabled"),
)

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "verdict_ms_p50": "ms",
                    "verdict_ms_p95": "ms", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "explore.calls": "count", "explore.self_s": "s",
    "explore.states": "count", "explore.successors": "count",
    "explore.dedup_ratio": "1",
    "step.calls": "count", "step.self_s": "s", "step.cert_self_s": "s",
    "step.flush_calls": "count", "step.flush_self_s": "s",
    "cert.promise_calls": "count", "cert.certify_calls": "count",
    "cert.candidate_calls": "count", "cert.self_s": "s",
    "cert.memo_hit_ratio": "1", "cert.candidate_memo_hit_ratio": "1",
    "cert.budget_hits": "count",
    "intern.key_calls": "count", "intern.self_s": "s",
    "intern.timelines": "count",
    "por.ample_calls": "count", "por.self_s": "s",
    "por.ample_hit_ratio": "1", "por.gate_skips": "count",
    "cache.lookups": "count", "cache.memo_hit_ratio": "1",
    "cache.self_s": "s", "cache.key_self_s": "s",
    "verifier.reports": "count", "verifier.self_s": "s",
    "verifier.plan_self_s": "s", "verifier.explorations": "count",
    "verifier.fused_conditions": "count", "verifier.monitor_stops": "count",
    "vrm.transactional_calls": "count", "vrm.transactional_self_s": "s",
    "smt.queries": "count", "smt.self_s": "s", "smt.solve_calls": "count",
    "smt.clauses": "count", "smt.outcomes": "count",
    "model.sc_s": "s", "model.tso_s": "s", "model.arm_s": "s",
    "serve.parse_self_s": "s", "serve.submit_self_s": "s",
    "serve.hot_self_s": "s", "serve.hot_hit_ratio": "1",
    "serve.coalesced": "count", "serve.computed": "count",
    "serve.shed": "count", "serve.errors": "count",
    "serve.queue_wait_ms_p95": "ms", "serve.execute_self_s": "s",
    "serve.disk_load_s": "s", "serve.disk_store_s": "s",
    "loadgen.sent": "count", "loadgen.late_ms_p95": "ms",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_ratio": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p95_ms(samples: List[float]) -> float:
    """p95 in ms; with too few samples, the maximum (an upper bound)."""
    if not samples:
        return 0.0
    try:
        return stats.percentile(samples, 95) * 1e3
    except ValueError:
        return max(samples) * 1e3


def rss_mb() -> float:
    """Resident set of this process now, in MiB."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(inherited_mb: float = 0.0) -> float:
    """Peak resident set of this process plus that of its largest
    waited-for child (the serve worker), in MiB.

    A forked child's peak counts every page it shares with its parent
    from the fork; *inherited_mb*, the parent's resident set at the
    fork, is taken off it so those pages are counted once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + max(0.0, kids - inherited_mb)


def environment(root: str, args) -> Dict[str, Any]:
    """What a number depends on besides the code: recorded per run."""
    import importlib

    defaults: Dict[str, Any] = {}
    for field, module, fn in ENGINE_DEFAULTS:
        try:
            defaults[field] = getattr(importlib.import_module(module), fn)()
        except (ImportError, AttributeError):
            defaults[field] = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "engine_defaults": defaults,
    }


def _commit(root: str) -> Optional[str]:
    """The checked-out commit when *root* is a git work tree."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ----------------------------------------------------------------------
# batch workloads


def run_batch(args, root: str, t0: float) -> Dict[str, Any]:
    wl = workloads.BATCH[args.workload](root, args.seed)
    setup_s = time.time() - t0
    if args.setup_only:
        return {"setup_s": setup_s}
    if args.trace:
        return trace_batch(args, wl)
    clock = CalibratedClock()
    passes: List[workloads.PassResult] = []
    begin = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - begin + passes[-1].raw_wall
           <= args.seconds):
        passes.append(wl.run_pass(len(passes), clock))
    verdicts = [s for p in passes for s in p.verdict_s]
    for problem in [q for p in passes for q in p.problems][:20]:
        print(f"perfbench: FAILED {problem}")
    print(f"perfbench: wall-clock pass_s "
          f"{stats.median([p.raw_wall for p in passes]):.4f}, probe "
          f"{min(clock.probes) * 1e3:.2f}..{max(clock.probes) * 1e3:.2f} ms")
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            "setup_s": setup_s,
            "pass_s": stats.median([p.wall for p in passes]),
            "verdict_ms_p50": stats.percentile(verdicts, 50) * 1e3,
            "verdict_ms_p95": stats.percentile(verdicts, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        "note": f"{len(passes)} passes, {len(verdicts)} verdicts",
    }


def trace_batch(args, wl) -> Dict[str, Any]:
    from repro.memory.cache import lookup_stats, reset_lookup_stats
    from repro.smt.backend import BmcStats

    clock = CalibratedClock(calibrate=False)
    plain = wl.run_pass(0, clock)
    tracer = tracing.Tracer(f"{args.workload}-{args.seed}", time.perf_counter)
    bmc = BmcStats()
    reset_lookup_stats()
    tracer.install()
    try:
        traced = wl.run_pass(1, clock, bmc_stats=bmc)
    finally:
        tracer.uninstall()
    lookups = lookup_stats()
    snap = tracer.snapshot()
    models = {"sc": 0.0, "tso": 0.0, "arm": 0.0}
    for row in plain.rows:
        if row.get("model") in models:
            models[row["model"]] += row["seconds"]
    metrics = layer_metrics(
        [snap], traced.wall, _ratio(traced.wall, plain.wall),
        lookups=lookups, bmc=bmc.as_dict(), models=models,
    )
    write_trace(args, [snap], metrics, {"untraced": plain.rows,
                                        "traced": traced.rows})
    for problem in (plain.problems + traced.problems)[:20]:
        print(f"perfbench: FAILED {problem}")
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# serve_mixed


async def serve_main(args, root: str, t0: float) -> Dict[str, Any]:
    wl = workloads.ServeMixed(root, args.seed, args.seconds)
    tracer = None
    records: Dict[str, Any] = {}
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}", time.monotonic)
        tracer.install(hooks={
            "VerificationServer.submit":
                lambda res: records.setdefault(res[1].id, res[1]),
        })
        tracing.install_worker_dump(tracer, args.run_dir)
    at_fork_mb = rss_mb()
    await wl.start()
    setup_s = time.time() - t0
    if args.setup_only:
        await wl.stop()
        return {"setup_s": setup_s}
    try:
        if tracer is not None:
            tracer.reset()
        begin = time.monotonic()
        loop = await wl.window()
        wall = time.monotonic() - begin
    finally:
        await wl.stop()
    rss = peak_rss_mb(at_fork_mb)
    snaps = []
    if tracer is not None:
        snaps = [tracer.snapshot()] + tracing.load_worker_dumps(args.run_dir)
        tracer.uninstall()
    direct_walls = []
    reference = None
    clock = CalibratedClock(calibrate=tracer is None)
    for _ in range(1 if tracer is not None else workloads.DIRECT_PASSES):
        pass_wall, docs = wl.direct_pass(clock)
        direct_walls.append(pass_wall)
        if reference is None:
            reference = docs
    checked = wl.check(loop, reference)
    for problem in checked.problems[:20]:
        print(f"perfbench: FAILED {problem}")
    out = {"attempted": checked.attempted, "failed": checked.failed}
    if tracer is None:
        latencies = [lat * wl.speed for lat in checked.verdict_s]
        out["metrics"] = {
            "setup_s": setup_s,
            "pass_s": stats.median(direct_walls),
            "verdict_ms_p50": stats.percentile(latencies, 50) * 1e3,
            "verdict_ms_p95": stats.percentile(latencies, 95) * 1e3,
            "peak_rss_mb": rss,
        }
        out["note"] = (
            f"{len(wl.jobs)} requests, {len(wl.distinct())} distinct jobs, "
            f"{wl.stats.get('counters', {}).get('computed', 0)} computed, "
            f"host-speed factor {wl.speed:.4f}, wall-clock verdict_ms_p50 "
            f"{stats.percentile(checked.verdict_s, 50) * 1e3:.3f} "
            f"p95 {stats.percentile(checked.verdict_s, 95) * 1e3:.3f}"
        )
        return out
    second = tracing.Tracer("overhead", time.monotonic)
    second.install()
    try:
        traced_direct, _docs = wl.direct_pass(clock)
    finally:
        second.uninstall()
    metrics = layer_metrics(
        snaps, wall, _ratio(traced_direct, direct_walls[0]),
        serve=wl.stats, loop=loop,
        queue_wait=queue_waits(records, snaps[1:]),
    )
    rows = [
        {"request": i, "kind": job["kind"],
         "latency_ms": lat * 1e3, "late_ms": late * 1e3,
         "status": None if isinstance(res, Exception) else res[0],
         "source": (res[1].get("source") if not isinstance(res, Exception)
                    and isinstance(res[1], dict) else None)}
        for i, (job, lat, late, res) in enumerate(zip(
            wl.jobs, loop.latencies(), loop.lateness(), loop.outcome))
    ]
    write_trace(args, snaps, metrics, {"requests": rows})
    out["metrics"] = metrics
    return out


def queue_waits(records: Dict[str, Any], worker_snaps) -> List[float]:
    """Seconds each computed job waited between submit and execution.

    With one worker, jobs execute in the order they finish, so the
    worker's ``execute_job`` spans pair up with the computed records
    sorted by finish time.  Both sides use the system-wide monotonic
    clock.
    """
    computed = sorted(
        (r for r in records.values()
         if r.source == "computed" and r.status in ("done", "error")),
        key=lambda r: r.finished_at,
    )
    starts = sorted(
        span[2] for snap in worker_snaps for span in snap["spans"]
        if span[1] == "execute_job"
    )
    return [start - r.submitted_at for r, start in zip(computed, starts)]


# ----------------------------------------------------------------------
# per-layer metrics


def layer_metrics(
    snaps: List[Dict[str, Any]],
    wall: float,
    overhead: float,
    lookups: Optional[Dict[str, Dict[str, int]]] = None,
    bmc: Optional[Dict[str, int]] = None,
    models: Optional[Dict[str, float]] = None,
    serve: Optional[Dict[str, Any]] = None,
    loop: Any = None,
    queue_wait: Optional[List[float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from the traced snapshots and API stats.

    ``snaps[0]`` is the measuring process; its self times plus
    ``trace.unattributed_s`` add up to ``trace.wall_s``.  Further
    snapshots (serve workers) run concurrently and only add to the
    layer totals.
    """
    calls: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    verify: Dict[str, int] = {}
    step_cert = 0.0
    for snap in snaps:
        for k, v in snap["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in snap["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in (snap.get("verify") or {}).items():
            if isinstance(v, int):
                verify[k] = verify.get(k, 0) + v
        step_cert += snap["step_cert_self_s"]
    self_s = tracing.layer_self(snaps)
    main_self = sum(tracing.layer_self(snaps[:1]).values())

    if serve:
        cache_hits = serve.get("worker_cache", {}).get("hits", {})
        cache_misses = serve.get("worker_cache", {}).get("misses", {})
    else:
        cache_hits = (lookups or {}).get("hits", {})
        cache_misses = (lookups or {}).get("misses", {})
    n_lookups = sum(cache_hits.values()) + sum(cache_misses.values())
    serve = serve or {}
    hot = serve.get("hot_tier", {})
    serve_counts = serve.get("counters", {})
    bmc = bmc or {}
    models = models or {}

    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    m.update({
        "explore.calls": calls.get("explore", 0),
        "explore.states": counters.get("explore.states", 0),
        "explore.successors": counters.get("successors_generated", 0),
        "explore.dedup_ratio": _ratio(counters.get("explore.states", 0),
                                      counters.get("successors_generated", 0)),
        "step.calls": calls.get("execute_instruction", 0),
        "step.cert_self_s": step_cert,
        "step.flush_calls": calls.get("tso_flush_steps", 0),
        "cert.promise_calls": calls.get("promise_steps", 0),
        "cert.certify_calls": counters.get("certify_calls", 0),
        "cert.candidate_calls": counters.get("candidate_calls", 0),
        "cert.memo_hit_ratio": _ratio(counters.get("certify_memo_hits", 0),
                                      counters.get("certify_calls", 0)),
        "cert.candidate_memo_hit_ratio": _ratio(
            counters.get("candidate_memo_hits", 0),
            counters.get("candidate_calls", 0)),
        "cert.budget_hits": counters.get("cert_budget_hits", 0),
        "intern.key_calls": calls.get("StateInterner.key", 0),
        "intern.timelines": counters.get("interner_timelines", 0),
        "por.ample_calls": calls.get("PORPlan.ample_thread", 0),
        "por.ample_hit_ratio": _ratio(counters.get("por_ample_hits", 0),
                                      calls.get("PORPlan.ample_thread", 0)),
        "por.gate_skips": counters.get("por_gate_skips", 0),
        "cache.lookups": n_lookups,
        "cache.memo_hit_ratio": _ratio(cache_hits.get("memo", 0), n_lookups),
        "verifier.reports": calls.get("verify_wdrf", 0),
        "verifier.explorations": verify.get("explorations", 0),
        "verifier.fused_conditions": verify.get("fused_conditions", 0),
        "verifier.monitor_stops": verify.get("monitor_stops", 0),
        "vrm.transactional_calls": calls.get("check_program_transactional", 0),
        "smt.queries": calls.get("bmc_explore", 0),
        "smt.solve_calls": bmc.get("solve_calls", 0),
        "smt.clauses": bmc.get("clauses", 0),
        "smt.outcomes": bmc.get("outcomes", 0),
        "model.sc_s": models.get("sc", 0.0),
        "model.tso_s": models.get("tso", 0.0),
        "model.arm_s": models.get("arm", 0.0),
        "serve.hot_hit_ratio": hot.get("hit_rate", 0.0),
        "serve.coalesced": serve_counts.get("coalesced", 0),
        "serve.computed": serve_counts.get("computed", 0),
        "serve.shed": serve_counts.get("shed", 0),
        "serve.errors": serve_counts.get("errors", 0),
        "serve.queue_wait_ms_p95": _p95_ms(queue_wait or []),
        "loadgen.sent": 0 if loop is None else loop.count,
        "loadgen.late_ms_p95": (0.0 if loop is None
                                else _p95_ms(loop.lateness())),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - main_self,
        "trace.overhead_ratio": overhead,
    })
    for name, seconds in self_s.items():
        if name in m:
            m[name] = seconds
    return m


def write_trace(args, snaps, metrics, rows) -> None:
    """Write spans, layer aggregates and per-program rows for reading."""
    doc = {
        "environment": environment(args.root, args),
        "metrics": metrics,
        "processes": snaps,
        "rows": rows,
    }
    path = os.path.join(args.run_dir, "trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"perfbench: trace written to {os.path.relpath(path, args.root)}")


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="wall-clock time the parent started this process")
    p.add_argument("--root", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    stray = sorted(k for k in os.environ
                   if k.startswith("REPRO_") and k not in ALLOWED_REPRO_ENV)
    if stray:
        print(f"perfbench: refusing to run with {stray} set", file=sys.stderr)
        return 2
    gc.collect()
    if args.workload == workloads.ServeMixed.name:
        out = asyncio.run(serve_main(args, args.root, args.t0))
    else:
        out = run_batch(args, args.root, args.t0)
    if not args.setup_only:
        print("perfbench: env " + json.dumps(environment(args.root, args),
                                             sort_keys=True))
        if "note" in out:
            print(f"perfbench: {out.pop('note')}")
    if "metrics" in out:
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        out["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
