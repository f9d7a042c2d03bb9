"""Verification-as-a-service: content-addressed job parsing, the hot
tier's LRU eviction policy, the server pipeline (dedup → coalesce →
bounded queue → workers) end to end over both the programmatic API and
real HTTP, worker loss, and the ``repro serve`` flags."""

import asyncio
import os
import signal

import pytest

from repro.conformance import build, derive_rng, random_genome
from repro.conformance.digests import behavior_digest
from repro.litmus import full_corpus
from repro.litmus.runner import rm_config
from repro.memory import cached_explore, clear_memory_cache
from repro.serve import (
    JobError,
    ServeConfig,
    VerificationServer,
    execute_job,
    parse_job,
)
from repro.serve.hot_tier import HotTier
from repro.serve.server import FINISHED_RECORDS, QUEUE_SHED, shed_error
from repro.serve.traffic import run_traffic, synthetic_workload
from repro.serve.workers import WorkerPool


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXPLORE_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    yield tmp_path
    clear_memory_cache()


def _genome_doc(i=0, name=None, profile="plain"):
    genome = random_genome(
        profile, derive_rng(7, f"serve-test-{i}"),
        n_threads=2, min_ops=2, max_ops=3, n_locations=2,
        name=name or f"serve-test-{i}",
    )
    return genome.to_json()


def _explore_body(i=0, name=None, **extra):
    body = {
        "kind": "explore", "genome": _genome_doc(i, name),
        "model": "rm", "max_promises": 2, "backend": "explore",
    }
    body.update(extra)
    return body


def _litmus_name():
    for test in full_corpus():
        if test.name.upper() == "LB":
            return test.name
    return full_corpus()[0].name


# ---------------------------------------------------------------------------
# parsing + content addressing
# ---------------------------------------------------------------------------

class TestParseJob:
    def test_rejects_malformed_requests(self):
        with pytest.raises(JobError):
            parse_job("not an object")
        with pytest.raises(JobError):
            parse_job({})                            # missing kind
        with pytest.raises(JobError):
            parse_job({"kind": "nope"})              # unknown kind
        with pytest.raises(JobError):
            parse_job({"kind": "explore"})           # missing genome
        with pytest.raises(JobError):
            parse_job({"kind": "explore", "genome": {"nope": 1}})
        with pytest.raises(JobError):
            parse_job(_explore_body(model="ppc"))    # unknown model
        parse_job(_explore_body(model="tso"))        # portfolio member: valid
        with pytest.raises(JobError):
            parse_job(_explore_body(backend="z3"))   # unknown backend
        with pytest.raises(JobError, match="explore.*bmc"):
            parse_job(_explore_body(backend="auto"))  # no longer a backend
        with pytest.raises(JobError):
            parse_job({"kind": "litmus", "test": "no-such-test"})
        with pytest.raises(JobError):
            parse_job({"kind": "wdrf", "case": "no-such-case"})
        with pytest.raises(JobError):
            # wdrf needs a sync-profile genome
            parse_job({"kind": "wdrf", "genome": _genome_doc(0)})

    def test_display_name_does_not_change_key(self):
        """The dedup property: renaming a genome must not defeat
        content addressing, while a different genome must."""
        a = parse_job(_explore_body(0, name="alice"))
        b = parse_job(_explore_body(0, name="bob"))
        other = parse_job(_explore_body(1))
        assert a.key == b.key
        assert a.key != other.key

    def test_backend_and_model_change_key(self):
        base = parse_job(_explore_body(0))
        assert base.key != parse_job(_explore_body(0, backend="bmc")).key
        assert base.key != parse_job(_explore_body(0, model="sc")).key

    def test_payload_is_canonical(self):
        """Re-parsing a parsed payload yields the same key (defaults
        are filled in, so the payload is a fixed point)."""
        for body in (
            _explore_body(0),
            {"kind": "litmus", "test": _litmus_name()},
            {"kind": "wdrf", "case": "gen_vmid[verified]"},
        ):
            job = parse_job(body)
            assert parse_job(job.payload).key == job.key

    def test_wdrf_case_keys_are_distinct(self):
        verified = parse_job({"kind": "wdrf", "case": "gen_vmid[verified]"})
        buggy = parse_job({"kind": "wdrf", "case": "gen_vmid[no-barriers]"})
        assert verified.key != buggy.key

    def test_wdrf_key_does_not_run_the_non_exploring_checks(
        self, monkeypatch
    ):
        """Keying a wDRF job plans its passes but never runs a check
        that decides without exploring: its unit digest ignores the
        verdict, so running it would only slow the parse path."""
        from repro.sekvm.ir_programs import (
            kcore_buggy_cases, kcore_verified_cases,
        )
        from repro.vrm import verifier

        cases = list(kcore_verified_cases(4)) + list(kcore_buggy_cases(4))
        expected = {
            (case.name, fuse): verifier.pass_fingerprints(case.spec, fuse=fuse)
            for case in cases for fuse in (True, False)
        }
        body = {"kind": "wdrf", "case": "gen_vmid[verified]"}
        key = parse_job(body).key

        def refuse(*_args, **_kwargs):
            raise AssertionError("a non-exploring check ran while keying")

        monkeypatch.setattr(verifier, "check_program_transactional", refuse)
        monkeypatch.setattr(
            verifier, "check_sequential_tlb_invalidation", refuse
        )
        assert parse_job(body).key == key
        for case in cases:
            for fuse in (True, False):
                assert verifier.pass_fingerprints(
                    case.spec, fuse=fuse
                ) == expected[(case.name, fuse)]


class TestExecuteIdentity:
    def test_explore_matches_direct_call(self):
        """A served explore result is bit-identical to calling the
        engine directly — same digest, same counts."""
        from repro.conformance.genome import Genome

        job = parse_job(_explore_body(0))
        doc = execute_job(job.payload)
        direct = cached_explore(
            build(Genome.from_json(job.payload["genome"])), rm_config(2)
        )
        assert doc["behavior_digest"] == behavior_digest(direct)
        assert doc["n_behaviors"] == len(direct.behaviors)
        assert doc["states_explored"] == direct.states_explored
        assert doc["complete"] == direct.complete

    def test_litmus_execution(self):
        job = parse_job({"kind": "litmus", "test": _litmus_name()})
        doc = execute_job(job.payload)
        assert doc["passed"] is True
        assert doc["sc_digest"] != ""
        assert doc["rm_digest"] != ""

    @pytest.mark.parametrize(
        "case, holds",
        [("gen_vmid[verified]", True), ("gen_vmid[no-barriers]", False)],
    )
    def test_wdrf_matches_direct_call(self, case, holds):
        """A served wDRF report carries the per-condition verdicts of a
        direct ``verify_wdrf``, plus a rendered witness when it fails."""
        from repro.sekvm.ir_programs import (
            kcore_buggy_cases,
            kcore_verified_cases,
        )
        from repro.vrm.verifier import verify_wdrf

        doc = execute_job(parse_job({"kind": "wdrf", "case": case}).payload)
        (spec,) = [
            c.spec for c in kcore_verified_cases() + kcore_buggy_cases()
            if c.name == case
        ]
        direct = verify_wdrf(spec)
        assert doc["conditions"] == {
            cond.value: {
                "holds": res.holds,
                "exhaustive": res.exhaustive,
                "violations": list(res.violations),
            }
            for cond, res in direct.results.items()
        }
        assert doc["all_hold"] is direct.all_hold is holds
        if holds:
            assert doc["counterexample"] is None
        else:
            assert doc["counterexample"].startswith("wDRF counterexample")


# ---------------------------------------------------------------------------
# hot tier eviction policy
# ---------------------------------------------------------------------------

class TestHotTier:
    def test_lru_eviction_order(self):
        """Entry-cap eviction removes the least-recently-*used* entry:
        a get refreshes recency, so the untouched entry goes first."""
        tier = HotTier(max_entries=2, max_bytes=1 << 20)
        tier.put("a", {"v": 1})
        tier.put("b", {"v": 2})
        assert tier.get("a") == {"v": 1}   # refresh a; b is now LRU
        tier.put("c", {"v": 3})
        assert tier.get("b") is None       # evicted
        assert tier.get("a") == {"v": 1}
        assert tier.get("c") == {"v": 3}
        assert tier.evictions == 1

    def test_byte_cap_evicts_oldest_until_fit(self):
        doc = {"pad": "x" * 100}
        import json
        size = len(json.dumps(doc, sort_keys=True).encode())
        tier = HotTier(max_entries=100, max_bytes=2 * size)
        tier.put("a", doc)
        tier.put("b", doc)
        tier.put("c", doc)                 # over budget: a must go
        assert tier.get("a") is None
        assert tier.get("b") is not None
        assert tier.get("c") is not None
        assert tier.bytes <= tier.max_bytes
        assert tier.evictions == 1

    def test_oversized_document_not_admitted(self):
        tier = HotTier(max_entries=10, max_bytes=50)
        tier.put("big", {"pad": "x" * 200})
        assert len(tier) == 0              # kept out, nothing evicted
        assert tier.evictions == 0

    def test_replacing_a_key_keeps_byte_accounting(self):
        tier = HotTier(max_entries=10, max_bytes=1 << 20)
        tier.put("k", {"pad": "x" * 100})
        tier.put("k", {"pad": "y"})        # replace with a smaller doc
        assert len(tier) == 1
        import json
        assert tier.bytes == len(
            json.dumps({"pad": "y"}, sort_keys=True).encode()
        )

    def test_disabled_tier_is_inert(self):
        tier = HotTier(max_entries=0, max_bytes=1 << 20)
        assert not tier.enabled
        tier.put("k", {"v": 1})
        assert tier.get("k") is None
        assert len(tier) == 0

    def test_stats_shape(self):
        tier = HotTier(max_entries=4, max_bytes=1 << 20)
        tier.put("k", {"v": 1})
        tier.get("k")
        tier.get("missing")
        stats = tier.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


# ---------------------------------------------------------------------------
# the bounded queue's refusal
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_shed_error_shape(self):
        body = shed_error("deadbeef")
        assert body["error"]["type"] == QUEUE_SHED
        assert body["error"]["key"] == "deadbeef"


# ---------------------------------------------------------------------------
# the server pipeline (programmatic, inline pool)
# ---------------------------------------------------------------------------

def _inline_config(**overrides):
    base = dict(port=0, workers=0, queue_limit=64)
    base.update(overrides)
    return ServeConfig(**base)


async def _booted(config):
    server = VerificationServer(config)
    await server.start()
    return server


async def _until(probe, timeout=10.0):
    """Poll *probe* until it returns something truthy; fail on timeout
    instead of hanging."""
    async def poll():
        while True:
            value = probe()
            if value:
                return value
            await asyncio.sleep(0.01)
    return await asyncio.wait_for(poll(), timeout)


class TestServerPipeline:
    def test_compute_then_hot_hit(self):
        async def scenario():
            server = await _booted(_inline_config())
            try:
                status, first = server.submit(_explore_body(0, name="cold"))
                # the idle inline worker picks the job up immediately
                assert status == 202 and first.status == "running"
                await server.wait(first)
                assert first.status == "done" and first.source == "computed"
                # a renamed duplicate is answered from the hot tier
                status, second = server.submit(
                    _explore_body(0, name="renamed")
                )
                assert status == 200 and second.source == "hot"
                assert second.result == first.result
                stats = server.stats()
                assert stats["counters"]["computed"] == 1
                assert stats["counters"]["hot_hits"] == 1
                assert stats["cache_hit_rate"] == 0.5
                kinds = [e["kind"] for e in first.events]
                assert kinds[0] == "job_queued"
                assert "job_running" in kinds
                assert kinds[-1] == "job_done"
            finally:
                await server.stop()
        asyncio.run(scenario())

    def test_disk_layer_survives_a_restart(self):
        async def scenario():
            first = await _booted(_inline_config())
            try:
                _status, record = first.submit(_explore_body(0))
                await first.wait(record)
                result = record.result
            finally:
                await first.stop()
            second = await _booted(_inline_config())
            try:
                status, replay = second.submit(_explore_body(0))
                assert status == 200 and replay.source == "disk"
                assert replay.result == result
                assert second.counters["disk_hits"] == 1
            finally:
                await second.stop()
        asyncio.run(scenario())

    def test_inflight_duplicates_coalesce(self):
        async def scenario():
            server = await _booted(_inline_config())
            try:
                # No await between the submits, so the first cannot
                # finish in between: the duplicate must attach to the
                # in-flight primary instead of queueing its own work.
                _s1, primary = server.submit(_explore_body(0, name="one"))
                s2, attached = server.submit(_explore_body(0, name="two"))
                assert s2 == 202 and attached is primary
                assert server.counters["coalesced"] == 1
                await server.wait(primary)
                assert primary.status == "done"
                assert server.counters["computed"] == 1
            finally:
                await server.stop()
        asyncio.run(scenario())

    def test_full_queue_sheds_oldest(self):
        async def scenario():
            server = await _booted(_inline_config(queue_limit=1))
            try:
                # Job 1 is dispatched immediately (the single inline
                # worker), job 2 sits in the bounded queue, job 3
                # overflows it: the *oldest* queued job (2) is shed.
                _s, first = server.submit(_explore_body(0))
                _s, second = server.submit(_explore_body(1))
                s3, third = server.submit(_explore_body(2))
                assert second.status == "shed"
                assert second.error["error"]["type"] == QUEUE_SHED
                assert s3 == 202
                await server.wait(first)
                await server.wait(third)
                assert first.status == "done" and third.status == "done"
                assert server.counters["shed"] == 1
            finally:
                await server.stop()
        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# HTTP + SSE end to end
# ---------------------------------------------------------------------------

class TestHttpApi:
    def test_submit_status_events_stats(self):
        from repro.serve.client import (
            _request, get_job, get_stats, stream_events, submit_job,
        )

        async def scenario():
            server = await _booted(_inline_config())
            host = server.config.host
            try:
                status, body = await _request(
                    server.config.host, server.port, "GET", "/healthz"
                )
                assert (status, body) == (200, {"ok": True})

                status, body = await submit_job(
                    host, server.port, _explore_body(0), wait=True
                )
                assert status == 200 and body["status"] == "done"
                assert body["source"] == "computed"
                job_id = body["job_id"]

                status, again = await submit_job(
                    host, server.port, _explore_body(0, name="dup"),
                    wait=True,
                )
                assert status == 200 and again["source"] == "hot"
                assert again["result"] == body["result"]

                status, fetched = await get_job(host, server.port, job_id)
                assert status == 200 and fetched["status"] == "done"

                events = [e async for e in stream_events(
                    host, server.port, job_id
                )]
                kinds = [e["kind"] for e in events]
                assert kinds[0] == "job_queued" and kinds[-1] == "job_done"

                stats = await get_stats(host, server.port)
                assert stats["counters"]["hot_hits"] == 1

                status, err = await submit_job(
                    host, server.port, {"kind": "nope"}, wait=True
                )
                assert status == 400
                assert err["error"]["type"] == "invalid_job"

                status, err = await get_job(host, server.port, "j999999")
                assert status == 404
                assert err["error"]["type"] == "unknown_job"
            finally:
                await server.stop()
        asyncio.run(scenario())

    def test_finished_records_are_capped(self):
        from repro.serve.client import get_job

        async def scenario():
            server = await _booted(_inline_config())
            host = server.config.host
            try:
                _s, warm = server.submit(_explore_body(0))
                await server.wait(warm)
                # One job running, one queued; no await until every hot
                # hit is in, so neither can finish in between.
                _s, running = server.submit(_explore_body(1))
                _s, queued = server.submit(_explore_body(2))
                assert (running.status, queued.status) == (
                    "running", "queued"
                )
                hits = [
                    server.submit(_explore_body(0, name=f"hit-{i}"))[1]
                    for i in range(FINISHED_RECORDS + 10)
                ]
                assert {hit.source for hit in hits} == {"hot"}
                assert len(server._records) <= FINISHED_RECORDS + 2
                assert running.id in server._records
                assert queued.id in server._records
                status, body = await get_job(host, server.port, hits[0].id)
                assert status == 404
                assert body["error"]["type"] == "unknown_job"
                status, body = await get_job(host, server.port, hits[-1].id)
                assert status == 200 and body["source"] == "hot"
                await server.wait(queued)
                assert running.status == queued.status == "done"
            finally:
                await server.stop()
        asyncio.run(scenario())

    def test_synthetic_traffic_report(self):
        async def scenario():
            server = await _booted(_inline_config())
            try:
                jobs = synthetic_workload(n_jobs=6, unique=2, seed=3)
                # repeats are renamed but content-identical
                assert jobs[0]["genome"]["name"] != jobs[2]["genome"]["name"]
                assert parse_job(jobs[0]).key == parse_job(jobs[2]).key
                assert parse_job(jobs[0]).key != parse_job(jobs[1]).key
                report = await run_traffic(
                    server.config.host, server.port, jobs, clients=3
                )
                assert report["jobs"] == 6 and report["failures"] == 0
                assert report["throughput_jobs_per_s"] > 0
                assert report["p99_ms"] >= report["p50_ms"]
                served_warm = (
                    report["server"]["counters"]["hot_hits"]
                    + report["server"]["counters"]["coalesced"]
                )
                assert served_warm + report["server"]["counters"][
                    "computed"] >= 6
            finally:
                await server.stop()
        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# the persistent forked pool: warm memos across jobs
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not WorkerPool.supported(),
                    reason="fork start method unavailable")
class TestForkedPool:
    def test_repeat_jobs_hit_the_worker_memo(self, monkeypatch):
        """With the hot tier and every disk layer off, a repeat job
        must be answered by the *worker process's* in-memory memo —
        the whole point of keeping workers alive between jobs."""
        monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")

        async def scenario():
            server = VerificationServer(ServeConfig(port=0, workers=1))
            server.hot = HotTier(max_entries=0)
            await server.start()
            try:
                _s, cold = server.submit(_explore_body(0, name="cold"))
                await server.wait(cold)
                assert cold.status == "done"
                assert cold.source == "computed"
                assert cold.cache_stats["misses"].get("explore") == 1

                _s, warm = server.submit(_explore_body(0, name="warm"))
                await server.wait(warm)
                assert warm.status == "done"
                assert warm.source == "computed"   # hot tier is off...
                assert warm.cache_stats["hits"].get("memo") == 1
                # recomputed from its own payload, so the display name
                # differs; the verdict itself must be identical
                assert (warm.result["behavior_digest"]
                        == cold.result["behavior_digest"])
                assert warm.result["n_behaviors"] == cold.result["n_behaviors"]

                # engine events crossed the process boundary into SSE
                kinds = [e["kind"] for e in cold.events]
                assert "engine_event" in kinds
            finally:
                await server.stop()
        asyncio.run(scenario())

    def test_http_sse_from_a_forked_worker_carries_engine_events(self):
        """Over real HTTP with a forked worker: a renamed duplicate is
        answered warm, and the first job's SSE stream carries the
        engine events the worker bridged across the process boundary."""
        from repro.serve.client import stream_events, submit_job

        async def scenario():
            server = await _booted(ServeConfig(port=0, workers=1))
            host, port = server.config.host, server.port
            try:
                status, first = await asyncio.wait_for(submit_job(
                    host, port, _explore_body(0, name="first")), 60)
                assert status == 200 and first["source"] == "computed"
                status, dup = await asyncio.wait_for(submit_job(
                    host, port, _explore_body(0, name="renamed")), 60)
                assert status == 200 and dup["source"] == "hot"
                assert (dup["result"]["behavior_digest"]
                        == first["result"]["behavior_digest"])

                async def kinds():
                    return [e["kind"] async for e in stream_events(
                        host, port, first["job_id"])]
                seen = await asyncio.wait_for(kinds(), 60)
                assert seen[0] == "job_queued" and seen[-1] == "job_done"
                assert "engine_event" in seen
            finally:
                await server.stop()
        asyncio.run(scenario())

    def test_a_worker_killed_while_idle_is_replaced(self):
        async def scenario():
            server = await _booted(ServeConfig(port=0, workers=1))
            try:
                victim = server._pool._procs[0]
                os.kill(victim.pid, signal.SIGKILL)
                await _until(lambda: server.counters.get("lost") == 1)
                assert server._pool._procs[0].is_alive()
                assert server._pool._procs[0].pid != victim.pid
                assert server.stats()["workers"] == 1

                _s, record = server.submit(
                    {"kind": "litmus", "test": _litmus_name()})
                await asyncio.wait_for(server.wait(record), 60)
                assert record.status == "done"
                assert record.result["passed"] is True
            finally:
                await server.stop()
            assert not server._pool._procs[0].is_alive()
        asyncio.run(scenario())

    def test_a_worker_killed_mid_job_fails_the_job(self):
        """The job the dead worker was running fails with a typed
        ``worker_lost`` (HTTP 500), and the replacement worker serves
        the next job."""
        from repro.serve.client import get_stats, submit_job

        async def scenario():
            server = await _booted(ServeConfig(port=0, workers=1))
            host, port = server.config.host, server.port
            try:
                slow = {"kind": "litmus", "test": "Example2-gen_vmid[buggy]"}
                reply = asyncio.ensure_future(submit_job(host, port, slow))
                record = await _until(lambda: next(
                    iter(server._records.values()), None))
                # the worker has started: its first engine event is in
                await _until(lambda: any(
                    e["kind"] == "engine_event" for e in record.events))
                assert record.status == "running"
                os.kill(server._pool._procs[0].pid, signal.SIGKILL)

                status, doc = await asyncio.wait_for(reply, 10)
                assert status == 500 and doc["status"] == "error"
                assert doc["error"] == {
                    "type": "worker_lost", "exit_code": -signal.SIGKILL,
                }
                stats = await asyncio.wait_for(get_stats(host, port), 10)
                assert stats["counters"]["lost"] == 1
                assert stats["counters"]["errors"] == 0
                assert stats["workers"] == 1

                status, doc = await asyncio.wait_for(submit_job(
                    host, port, {"kind": "litmus", "test": _litmus_name()}),
                    60)
                assert status == 200 and doc["source"] == "computed"
            finally:
                await server.stop()
        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# the ``repro serve`` command line
# ---------------------------------------------------------------------------

class TestServeCli:
    def test_flags_reach_the_server_config(self, monkeypatch):
        from repro.cli import main
        from repro.serve import server

        seen = []

        async def fake_run_server(config):
            seen.append(config)

        monkeypatch.setattr(server, "run_server", fake_run_server)
        assert main(["serve", "--host", "0.0.0.0", "--port", "9001",
                     "--workers", "3", "--queue-limit", "7"]) == 0
        assert seen == [ServeConfig(host="0.0.0.0", port=9001, workers=3,
                                    queue_limit=7)]
        assert main(["serve"]) == 0
        assert seen[1] == ServeConfig()

    def test_run_server_serves_until_cancelled(self, capsys):
        from repro.serve.client import get_stats
        from repro.serve.server import run_server

        async def scenario():
            task = asyncio.ensure_future(
                run_server(ServeConfig(port=0, workers=0)))
            out = []

            def banner():
                out.append(capsys.readouterr().out)
                return "listening on" in "".join(out)
            await _until(banner)
            port = int("".join(out).split(":")[2].split()[0])
            stats = await asyncio.wait_for(
                get_stats("127.0.0.1", port), 10)
            assert stats["counters"]["submitted"] == 0
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        asyncio.run(scenario())

    @pytest.mark.parametrize("flag", ["--batch", "--tenant-rate"])
    def test_removed_flags_are_rejected(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
