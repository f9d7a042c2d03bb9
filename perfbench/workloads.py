"""The three workloads: set-up, one timed pass or window, and checks.

``litmus_portfolio`` and ``sekvm_wdrf`` are batch workloads: one pass
computes the workload's whole verdict set cold (exploration memo
cleared, disk cache off) and is timed as a unit, with every verdict
also timed on its own.  ``serve_mixed`` drives an in-process
``VerificationServer`` with open-loop HTTP traffic; its batch figure
is a cold direct pass over the distinct jobs it served, which is also
the reference the served answers are checked against.

The seed only chooses inputs: the order of programs inside each batch
pass and ``serve_mixed``'s traffic.  The programs themselves never see
it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from perfbench import verdicts
from perfbench.hostspeed import (
    PROBE_N,
    REFERENCE_PROBE_S,
    CalibratedClock,
    probe,
)
from perfbench.loadgen import OpenLoop


def seeded(seed: int, *labels: object) -> random.Random:
    """A generator that depends only on the seed and the labels."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


@dataclass
class PassResult:
    """One timed batch pass and its checked verdicts.

    Times are in the seconds of the :class:`CalibratedClock` that took
    them; ``raw_wall`` is the same pass on the wall clock.
    """

    wall: float
    raw_wall: float
    verdict_s: List[float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    rows: List[Dict[str, Any]] = field(default_factory=list)


def promise_heavy_program():
    """One thread issues three promisable stores, the other reads them."""
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
        name="promise_heavy",
    )


def _cold() -> None:
    from repro.memory import cache

    cache.clear_memory_cache()
    gc.collect()


# ----------------------------------------------------------------------
# litmus_portfolio


class LitmusPortfolio:
    """The 45-test catalog under SC, TSO and Arm plus ``promise_heavy``.

    Each item is explored the way ``repro portability`` does it
    (observing every initialized location); the SAT backend then answers
    every encodable item inside the timed pass, as a cross-check whose
    answers are references, not verdicts.
    """

    name = "litmus_portfolio"

    def __init__(self, root: str, seed: int) -> None:
        from repro.litmus.catalog import full_corpus
        from repro.litmus.runner import litmus_configs, tso_config
        from repro.memory.semantics import ModelConfig

        self.seed = seed
        self.items: List[Tuple[str, Any, str, Any, Any, List[int]]] = []
        for test in full_corpus():
            sc_cfg, arm_cfg = litmus_configs(test)
            observe = sorted(test.program.initial_memory)
            for model, cfg in (("sc", sc_cfg), ("tso", tso_config(test)),
                               ("arm", arm_cfg)):
                self.items.append(
                    (test.name, test, model, test.program, cfg, observe)
                )
        heavy = promise_heavy_program()
        self.items.append((
            "promise_heavy", None, "arm", heavy,
            ModelConfig(relaxed=True, max_promises_per_thread=3),
            sorted(heavy.initial_memory),
        ))
        self.reference = verdicts.LitmusReference.load(root)

    def run_pass(self, index: int, clock: CalibratedClock,
                 bmc_stats: Any = None) -> PassResult:
        from repro.memory import cache
        from repro.smt import backend
        from repro.smt.encode import Unsupported

        order = list(range(len(self.items)))
        seeded(self.seed, self.name, index).shuffle(order)
        _cold()
        clock.recalibrate()
        results: Dict[int, Any] = {}
        seconds: Dict[int, float] = {}
        raised: Dict[int, str] = {}
        sat: Dict[int, Any] = {}
        raw = 0.0
        for k in order:
            _label, _test, _model, program, cfg, observe = self.items[k]
            clock.tick()
            factor, raw_start = clock.factor, time.perf_counter()
            try:
                results[k] = cache.cached_explore(
                    program, cfg, observe_locs=observe
                )
            except Exception as exc:  # noqa: BLE001 - a failed verdict
                raised[k] = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - raw_start
            seconds[k] = clock.span(elapsed, factor)
            raw += elapsed
        clock.tick()
        sat_start, raw_start = clock.now(), time.perf_counter()
        for k in order:
            _label, _test, _model, program, cfg, observe = self.items[k]
            if backend.bmc_supported(program, cfg) is not None:
                continue
            try:
                sat[k] = backend.bmc_explore(
                    program, cfg, observe, cache=False, stats=bmc_stats
                )
            except Unsupported:
                continue
        raw += time.perf_counter() - raw_start
        wall = sum(seconds.values()) + clock.now() - sat_start

        out = PassResult(wall=wall, raw_wall=raw,
                         verdict_s=[seconds[k] for k in order],
                         attempted=len(order), failed=0)
        for k in order:
            label, test, model, _program, _cfg, _observe = self.items[k]
            if k in raised:
                problems = [raised[k]]
            else:
                problems = self.reference.problems(
                    test, model, results[k], sat.get(k)
                )
            if problems:
                out.failed += 1
                out.problems.append(f"{label}/{model}: {'; '.join(problems)}")
            result = results.get(k)
            stats = getattr(result, "stats", None)
            out.rows.append({
                "program": label,
                "model": model,
                "seconds": seconds[k],
                "states": getattr(result, "states_explored", None),
                "successors": getattr(stats, "successors_generated", None),
                "certify_calls": getattr(stats, "certify_calls", None),
                "behaviors": (None if result is None
                              else len(result.behaviors)),
                "sat_checked": k in sat,
                "ok": not problems,
            })
        return out


# ----------------------------------------------------------------------
# sekvm_wdrf


class SekvmWdrf:
    """``verify_all_versions(include_buggy=True)``, serially, memo cleared.

    Every wDRF report is timed by a thin wrapper around the
    ``verify_wdrf`` binding :mod:`repro.sekvm.verify` calls, and the
    seed permutes the version order through its ``all_versions``
    binding; the sweep itself is the library's.
    """

    name = "sekvm_wdrf"

    def __init__(self, root: str, seed: int) -> None:
        from repro.sekvm import verify as sv
        from repro.sekvm.ir_programs import (
            kcore_buggy_cases,
            kcore_verified_cases,
        )

        self.seed = seed
        self._sv = sv
        self.versions = list(sv.all_versions())
        self.expected_reports = sum(
            len(kcore_verified_cases(v.s2_levels))
            + len(kcore_buggy_cases(v.s2_levels))
            for v in self.versions
        )
        self._order = list(self.versions)
        self._times: List[float] = []
        self._clock = CalibratedClock(calibrate=False)
        sv.all_versions = lambda: list(self._order)
        timed = sv.verify_wdrf

        def verify_wdrf(spec, *args, **kwargs):
            self._clock.tick()
            start = self._clock.now()
            try:
                return timed(spec, *args, **kwargs)
            finally:
                self._times.append(self._clock.now() - start)

        sv.verify_wdrf = verify_wdrf

    def run_pass(self, index: int, clock: CalibratedClock,
                 bmc_stats: Any = None) -> PassResult:
        order = list(self.versions)
        seeded(self.seed, self.name, index).shuffle(order)
        self._order = order
        self._times = []
        self._clock = clock
        _cold()
        clock.recalibrate()
        spent = clock.spent_s
        begin, raw_begin = clock.now(), time.perf_counter()
        try:
            outcomes = self._sv.verify_all_versions(include_buggy=True)
            error = None
        except Exception as exc:  # noqa: BLE001 - fails the whole pass
            outcomes, error = [], f"{type(exc).__name__}: {exc}"
        wall = clock.now() - begin
        raw = time.perf_counter() - raw_begin - (clock.spent_s - spent)

        out = PassResult(wall=wall, raw_wall=raw,
                         verdict_s=list(self._times),
                         attempted=self.expected_reports, failed=0)
        if error is not None:
            out.problems.append(error)
        seen = 0
        for version in outcomes:
            for case in version.outcomes:
                ok = case.as_expected
                out.rows.append({
                    "version": version.version.name,
                    "case": case.case.name,
                    "seconds": (self._times[seen]
                                if seen < len(self._times) else None),
                    "verified": case.report.all_verified,
                    "expected": case.case.should_verify,
                    "ok": ok,
                })
                seen += 1
                if not ok:
                    out.failed += 1
                    out.problems.append(
                        f"{version.version.name}/{case.case.name}: "
                        "wDRF verdict differs from the case's expectation"
                    )
        missing = self.expected_reports - seen
        if missing > 0:
            out.failed += missing
            out.problems.append(f"{missing} report(s) missing")
        return out


# ----------------------------------------------------------------------
# serve_mixed

#: Offered rate, pinned at about half the capacity measured for this
#: mix with one worker on a 2-CPU host (see NOTES.md).
SERVE_RATE = 20.0

#: Job families, one equal share of the requests each: explore jobs
#: under each of the three models, then wdrf and litmus jobs.
SERVE_FAMILIES = ("sc", "tso", "rm", "wdrf", "litmus")

#: Requests per distinct job in every family: the repeat ratio (90%) of
#: the repository's own serve benchmark, ``repro bench --only serve``
#: (60 jobs over 6 genomes, docs/SERVING.md).
REQUESTS_PER_DISTINCT = 10

#: Requests per run at least, so ``verdict_ms_p95`` has ten samples
#: beyond it however short the run.
MIN_REQUESTS = 210

#: A request with no response after this long has failed.
REQUEST_TIMEOUT_S = 30.0

#: Cold direct passes over the distinct jobs after the window.
DIRECT_PASSES = 3


def content_id(job: Dict[str, Any]) -> str:
    """A job's identity with display names removed (renames collapse)."""
    body = dict(job)
    if "genome" in body:
        body["genome"] = {k: v for k, v in body["genome"].items()
                          if k != "name"}
    return json.dumps(body, sort_keys=True)


def serve_requests(seed: int, count: int) -> List[Dict[str, Any]]:
    """*count* requests over the same distinct jobs for every seed.

    Every ``REQUESTS_PER_DISTINCT``-th request is the first of a new
    job, so cold computations arrive at a steady pace; each request in
    between repeats a job first sent in an earlier block of
    ``REQUESTS_PER_DISTINCT`` requests, so a repeat rarely finds its job
    still computing, and each family gets an equal share of the
    repeats.  The seed draws the order of the new jobs, the
    order of the repeats' families and which earlier job of its family
    each repeat re-sends.  Each family contributes its first
    ``count / REQUESTS_PER_DISTINCT / 5`` programs, in the order its
    source lists them: the genomes of
    :func:`repro.serve.traffic.synthetic_workload` at its default seed,
    the SeKVM cases, and the litmus catalog.
    """
    from repro.litmus.catalog import full_corpus
    from repro.sekvm.ir_programs import kcore_buggy_cases, kcore_verified_cases
    from repro.serve.traffic import synthetic_workload

    cases = [c.name for c in list(kcore_verified_cases())
             + list(kcore_buggy_cases())]
    tests = [t.name for t in full_corpus()]
    n_new = math.ceil(count / REQUESTS_PER_DISTINCT)
    per_family = math.ceil(n_new / len(SERVE_FAMILIES))
    distinct: List[Tuple[str, Dict[str, Any]]] = []
    for family in SERVE_FAMILIES:
        if family == "wdrf":
            jobs = [{"kind": "wdrf", "case": c} for c in cases[:per_family]]
        elif family == "litmus":
            jobs = [{"kind": "litmus", "test": t} for t in tests[:per_family]]
        else:
            jobs = synthetic_workload(
                n_jobs=per_family, unique=per_family, model=family)
        distinct += [(family, job) for job in jobs]
    rng = seeded(seed, "serve_mixed")
    rng.shuffle(distinct)
    distinct = distinct[:n_new]
    families = sorted({family for family, _job in distinct})
    repeats = [families[k % len(families)] for k in range(count - n_new)]
    rng.shuffle(repeats)
    sent: Dict[str, List[Dict[str, Any]]] = {f: [] for f in families}
    out: List[Dict[str, Any]] = []
    for i in range(count):
        new, offset = divmod(i, REQUESTS_PER_DISTINCT)
        if offset == 0:
            if new:
                family, job = distinct[new - 1]
                sent[family].append(job)
            out.append(distinct[new][1])
            continue
        if not new:
            # The first block has no earlier job: it repeats its own.
            out.append(distinct[0][1])
            repeats.remove(distinct[0][0])
            continue
        # The next repeat whose family has a job out already.
        k = next(k for k, f in enumerate(repeats) if sent[f])
        job = dict(rng.choice(sent[repeats.pop(k)]))
        if "genome" in job:
            # A repeat under a fresh display name, as synthetic_workload
            # sends them: the server must see through the rename.
            job["genome"] = dict(job["genome"],
                                 name=f"{job['genome']['name']}-req{i}")
        out.append(job)
    return out


class ServeMixed:
    """Open-loop traffic against one server with one worker process."""

    name = "serve_mixed"

    def __init__(self, root: str, seed: int, seconds: float) -> None:
        from repro.sekvm.ir_programs import (
            kcore_buggy_cases,
            kcore_verified_cases,
        )

        cases = list(kcore_verified_cases()) + list(kcore_buggy_cases())
        self.case_expect = {c.name: c.should_verify for c in cases}
        self.jobs = serve_requests(
            seed, max(MIN_REQUESTS, int(SERVE_RATE * seconds)))
        self.server = None
        self.stats: Dict[str, Any] = {}
        self.speed = 1.0

    async def start(self) -> None:
        """Fork the worker and bind an ephemeral port."""
        from repro.serve.server import ServeConfig, VerificationServer

        self.server = VerificationServer(ServeConfig(port=0, workers=1))
        await self.server.start()

    async def stop(self) -> None:
        """Stop the server; its worker is joined before this returns."""
        if self.server is not None:
            await self.server.stop()

    async def window(self) -> OpenLoop:
        """Send every job on the open-loop schedule, then read /v1/stats.

        The event loop cannot stop for a full host-speed probe without
        stalling requests, so it runs a fifth of one (2 to 5 ms) in each
        idle gap of more than 10 ms; ``self.speed`` is the calibration
        factor of their median.
        """
        from repro.serve.client import get_stats, submit_job

        host, port = self.server.config.host, self.server.port
        loop = OpenLoop(SERVE_RATE, len(self.jobs), os.cpu_count() or 1,
                        clock=time.perf_counter)
        probes: List[float] = []

        async def send(i: int):
            return await asyncio.wait_for(
                submit_job(host, port, self.jobs[i], wait=True),
                REQUEST_TIMEOUT_S)

        await loop.run(send, idle=lambda: probes.append(
            probe(reps=1, n=PROBE_N // 5)))
        # Traffic with no idle gap falls back to one probe after it.
        probes = probes or [probe(reps=1, n=PROBE_N // 5)]
        self.speed = REFERENCE_PROBE_S / statistics.median(probes)
        self.stats = await asyncio.wait_for(get_stats(host, port),
                                            REQUEST_TIMEOUT_S)
        return loop

    def distinct(self) -> Dict[str, Dict[str, Any]]:
        """The first job of every distinct content, in arrival order."""
        out: Dict[str, Dict[str, Any]] = {}
        for job in self.jobs:
            out.setdefault(content_id(job), job)
        return out

    def direct_pass(self, clock: CalibratedClock) -> Tuple[float, Dict[str, Any]]:
        """Execute every distinct job cold, serially, without the server."""
        from repro.serve import jobs as serve_jobs

        os.environ["REPRO_EXPLORE_CACHE"] = "0"
        work = self.distinct()
        _cold()
        clock.recalibrate()
        docs: Dict[str, Any] = {}
        begin = clock.now()
        for cid, job in work.items():
            clock.tick()
            try:
                docs[cid] = serve_jobs.execute_job(
                    serve_jobs.parse_job(job).payload
                )
            except Exception as exc:  # noqa: BLE001 - a failed verdict
                docs[cid] = exc
        return clock.now() - begin, docs

    def check(self, loop: OpenLoop, direct: Dict[str, Any]) -> PassResult:
        """Check every response against the direct run of its content."""
        out = PassResult(wall=0.0, raw_wall=0.0, verdict_s=loop.latencies(),
                         attempted=len(self.jobs), failed=0)
        for i, job in enumerate(self.jobs):
            problems = self._problems(job, loop.outcome[i],
                                      direct.get(content_id(job)))
            if problems:
                out.failed += 1
                out.problems.append(f"request {i} ({job['kind']}): "
                                    + "; ".join(problems))
        return out

    def _problems(self, job, outcome, reference) -> List[str]:
        if isinstance(reference, Exception) or reference is None:
            return [f"direct run failed: {reference!r}"]
        problems = []
        if job["kind"] == "litmus" and reference.get("passed") is not True:
            problems.append("direct litmus run does not match the catalog")
        if job["kind"] == "wdrf" and (
            reference.get("all_verified") != self.case_expect[job["case"]]
        ):
            problems.append("direct wDRF verdict differs from the case's "
                            "expectation")
        if isinstance(outcome, Exception):
            return problems + [f"request failed: {type(outcome).__name__}"]
        status, body = outcome
        if status != 200 or not isinstance(body, dict):
            return problems + [f"HTTP {status}"]
        if body.get("status") != "done":
            return problems + [f"job status {body.get('status')!r}"]
        return problems + verdicts.serve_problems(
            job["kind"], body.get("result"), reference
        )


BATCH = {
    LitmusPortfolio.name: LitmusPortfolio,
    SekvmWdrf.name: SekvmWdrf,
}

NAMES = (LitmusPortfolio.name, SekvmWdrf.name, ServeMixed.name)
