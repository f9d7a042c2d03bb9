"""The asyncio HTTP server: dedup first, bounded queue second, workers last.

Zero dependencies: HTTP/1.1 is hand-rolled over ``asyncio`` streams
(the request surface is four routes; a framework would be the only
third-party package in the repo).  Every connection carries one
request and closes — except SSE streams, which stay open until their
job finishes.

Routes (see ``docs/SERVING.md`` for the full contract):

* ``POST /v1/jobs`` — submit a job (``?wait=1`` blocks for the result)
* ``GET /v1/jobs/<id>`` — job status + result document
* ``GET /v1/jobs/<id>/events`` — SSE stream of the job's events
* ``GET /v1/stats`` — serving counters (hot tier, queue, workers)
* ``GET /healthz`` — liveness

The submit path is ordered so the cheapest answer wins and warm
traffic can never be shed:

1. parse + content-address (400 on malformed input),
2. hot tier (in-memory LRU of result documents),
3. serve disk layer (promoted into the hot tier on hit),
4. in-flight coalesce (same key already queued/running → attach),
5. bounded queue, shedding the *oldest* queued job on overflow
   (typed 429 ``queue_shed`` delivered to the shed job's waiters),
6. dispatch: each idle worker of the persistent pool takes the oldest
   queued job, one job at a time.  A worker that dies fails its job
   with ``worker_lost`` (500) and the pool forks a replacement.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import config
from repro.serve import hot_tier as hot
from repro.serve.jobs import Job, JobError, parse_job
from repro.serve.workers import make_pool

#: The ``error.type`` of a 429 body: the job was shed from a full queue.
QUEUE_SHED = "queue_shed"

#: How many finished job records (and their event buffers) the server
#: keeps for ``GET /v1/jobs/<id>``; older ones answer 404.  Queued and
#: running jobs are never dropped.
FINISHED_RECORDS = 1024


def shed_error(key: str) -> Dict[str, Any]:
    """The typed 429 body a shed job's waiters receive."""
    return {
        "error": {
            "type": QUEUE_SHED,
            "key": key,
            "retry_after_seconds": 1.0,
        }
    }


@dataclass
class ServeConfig:
    """Server knobs; every field has a ``REPRO_SERVE_*`` twin."""

    host: str = "127.0.0.1"
    port: int = 8044                  # 0 = ephemeral (tests, bench)
    workers: int = 1                  # 0 = inline (no fork)
    queue_limit: int = 64             # bounded cold-job queue

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServeConfig":
        """Environment-driven config; keyword overrides win."""
        cfg = cls(
            host=config.get("serve_host"),
            port=config.get("serve_port"),
            workers=config.get("serve_workers"),
            queue_limit=config.get("serve_queue"),
        )
        for name, value in overrides.items():
            setattr(cfg, name, value)
        return cfg


@dataclass
class JobRecord:
    """One submitted job's lifecycle state, event buffer, and waiters."""

    id: str
    job: Job
    status: str = "queued"      # queued | running | done | error | shed
    source: str = "computed"    # computed | hot | disk | coalesced
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    cache_stats: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List["asyncio.Queue[Optional[Dict[str, Any]]]"] = (
        field(default_factory=list)
    )
    done: asyncio.Event = field(default_factory=asyncio.Event)
    submitted_at: float = 0.0
    finished_at: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job_id": self.id,
            "kind": self.job.kind,
            "key": self.job.key,
            "status": self.status,
            "source": self.source,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error["error"]
        if self.cache_stats is not None:
            out["cache_stats"] = self.cache_stats
        return out


class VerificationServer:
    """The serving state machine plus its asyncio HTTP frontend.

    Built to be driven programmatically too: tests and the bench call
    :meth:`submit` / :meth:`wait` directly on the running instance —
    the HTTP layer is a thin JSON shim over the same methods.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig.from_env()
        self.hot = hot.HotTier()
        self.counters: Dict[str, int] = {
            "submitted": 0, "computed": 0, "hot_hits": 0, "disk_hits": 0,
            "coalesced": 0, "shed": 0, "errors": 0, "lost": 0,
        }
        self.worker_cache_stats: Dict[str, Dict[str, int]] = {
            "hits": {}, "misses": {},
        }
        self._records: Dict[str, JobRecord] = {}
        self._finished: Dict[str, None] = {}     # finished ids, oldest first
        self._inflight: Dict[str, str] = {}      # key -> primary job id
        self._queue: Deque[str] = deque()        # job ids awaiting dispatch
        self._running: Dict[int, Optional[str]] = {}  # widx -> job id
        self._next_id = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Fork the pool, then bind (fork must precede open sockets)."""
        self._loop = asyncio.get_running_loop()
        self._pool = make_pool(self.config.workers, self._pool_message)
        self._pool.start()
        self._running = dict.fromkeys(range(self._pool.n_workers))
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.stop()

    # ------------------------------------------------------------------
    # the submit pipeline

    def submit(self, body: Dict[str, Any]) -> Tuple[int, JobRecord]:
        """Run the dedup/queue pipeline for one request body.

        Returns ``(http_status, record)``; raises :class:`JobError`
        (→ 400) on malformed input.  Terminal statuses are materialized
        immediately: a hot or disk hit never touches the queue.
        """
        job = parse_job(body)
        self.counters["submitted"] += 1
        now = time.monotonic()

        doc = self.hot.get(job.key)
        if doc is not None:
            self.counters["hot_hits"] += 1
            return 200, self._finished_record(job, doc, "hot", now)
        doc = hot.disk_load(job.key)
        if doc is not None:
            self.counters["disk_hits"] += 1
            self.hot.put(job.key, doc)
            return 200, self._finished_record(job, doc, "disk", now)

        primary_id = self._inflight.get(job.key)
        if primary_id is not None:
            primary = self._records[primary_id]
            if primary.status in ("queued", "running"):
                self.counters["coalesced"] += 1
                return 202, primary

        if len(self._queue) >= max(1, self.config.queue_limit):
            oldest = self._records[self._queue.popleft()]
            self._inflight.pop(oldest.job.key, None)
            self.counters["shed"] += 1
            self._finish(
                oldest, status="shed", error=shed_error(oldest.job.key)
            )

        record = self._new_record(job, now)
        self._inflight[job.key] = record.id
        self._queue.append(record.id)
        self._emit(record, {"kind": "job_queued", "job_id": record.id,
                            "key": job.key})
        self._pump()
        return 202, record

    async def wait(self, record: JobRecord) -> JobRecord:
        """Block until *record* reaches a terminal status."""
        await record.done.wait()
        return record

    def _new_record(self, job: Job, now: float) -> JobRecord:
        self._next_id += 1
        record = JobRecord(
            id=f"j{self._next_id:06d}", job=job, submitted_at=now,
        )
        self._records[record.id] = record
        return record

    def _finished_record(self, job: Job, doc: Dict[str, Any],
                         source: str, now: float) -> JobRecord:
        record = self._new_record(job, now)
        record.source = source
        record.result = doc
        self._finish(record, status="done")
        return record

    def _finish(self, record: JobRecord, status: str,
                error: Optional[Dict[str, Any]] = None) -> None:
        record.status = status
        record.error = error
        record.finished_at = time.monotonic()
        self._emit(record, {"kind": "job_" + status, "job_id": record.id})
        record.done.set()
        for sub in record.subscribers:
            sub.put_nowait(None)
        self._finished[record.id] = None
        self._drop_old_records()

    def _drop_old_records(self) -> None:
        """Forget the oldest finished records past
        :data:`FINISHED_RECORDS`, skipping any whose SSE stream is still
        draining."""
        excess = len(self._finished) - FINISHED_RECORDS
        if excess <= 0:
            return
        dropped = []
        for job_id in self._finished:
            if not self._records[job_id].subscribers:
                dropped.append(job_id)
                if len(dropped) == excess:
                    break
        for job_id in dropped:
            del self._finished[job_id]
            del self._records[job_id]

    def _emit(self, record: JobRecord, event: Dict[str, Any]) -> None:
        record.events.append(event)
        for sub in record.subscribers:
            sub.put_nowait(event)

    # ------------------------------------------------------------------
    # dispatch + pool messages

    def _pump(self) -> None:
        """Hand the oldest queued job to each idle worker."""
        if self._pool is None:
            return
        for widx, running in self._running.items():
            if running is not None or not self._queue:
                continue
            record = self._records[self._queue.popleft()]
            record.status = "running"
            self._emit(record, {
                "kind": "job_running", "job_id": record.id, "worker": widx,
            })
            self._running[widx] = record.id
            self._pool.submit(widx, record.id, record.job.payload)

    def _pool_message(self, msg: Tuple[Any, ...]) -> None:
        """Pool reader-thread callback: bounce into the event loop."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._on_message, msg)

    def _on_message(self, msg: Tuple[Any, ...]) -> None:
        kind, widx = msg[0], msg[1]
        if kind == "lost":
            self._on_lost(widx, msg[2])
            return
        record = self._records.get(msg[2])
        if record is None:
            return
        if kind == "event":
            self._emit(record, {"kind": "engine_event", "event": msg[3]})
            return
        self._running[widx] = None
        self._merge_cache_stats(msg[4])
        record.cache_stats = msg[4]
        self._inflight.pop(record.job.key, None)
        if kind == "done":
            self.counters["computed"] += 1
            record.result = msg[3]
            self.hot.put(record.job.key, msg[3])
            hot.disk_store(record.job.key, msg[3])
            self._finish(record, status="done")
        else:
            self.counters["errors"] += 1
            self._finish(record, status="error", error={
                "error": {"type": "execution_failed", "detail": msg[3]},
            })
        self._pump()

    def _on_lost(self, widx: int, exit_code: Optional[int]) -> None:
        """Worker *widx* died: fail the job it was running, if any, and
        dispatch to its replacement.  Every message the worker sent has
        been handled already, so a job it finished is not failed."""
        self.counters["lost"] += 1
        job_id, self._running[widx] = self._running[widx], None
        if job_id is not None:
            record = self._records[job_id]
            self._inflight.pop(record.job.key, None)
            self._finish(record, status="error", error={
                "error": {"type": "worker_lost", "exit_code": exit_code},
            })
        self._pool.replace(widx)
        self._pump()

    def _merge_cache_stats(self, stats: Dict[str, Dict[str, int]]) -> None:
        for bucket in ("hits", "misses"):
            totals = self.worker_cache_stats[bucket]
            for layer, count in stats.get(bucket, {}).items():
                totals[layer] = totals.get(layer, 0) + count

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> Dict[str, Any]:
        total = self.counters["submitted"]
        served_warm = (self.counters["hot_hits"]
                       + self.counters["disk_hits"]
                       + self.counters["coalesced"])
        return {
            "counters": dict(self.counters),
            "cache_hit_rate": (served_warm / total) if total else 0.0,
            "hot_tier": self.hot.stats(),
            "worker_cache": {
                "hits": dict(self.worker_cache_stats["hits"]),
                "misses": dict(self.worker_cache_stats["misses"]),
            },
            "queue_depth": len(self._queue),
            "workers": 0 if self._pool is None else self._pool.n_workers,
        }

    # ------------------------------------------------------------------
    # HTTP frontend

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            await self._route(*request, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            try:
                # Half-close before closing: a replacement worker forked
                # while this connection was open holds a copy of its
                # socket, so close() alone would leave the client
                # waiting for an end of file.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            return None
        path, _, query = target.partition("?")
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, query, body

    async def _route(self, method, path, query, body, writer):
        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, {"ok": True})
            return
        if method == "GET" and path == "/v1/stats":
            await self._respond(writer, 200, self.stats())
            return
        if method == "POST" and path == "/v1/jobs":
            await self._handle_submit(query, body, writer)
            return
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._handle_events(rest[:-len("/events")].rstrip("/"),
                                          writer)
                return
            record = self._records.get(rest)
            if record is None:
                await self._respond(writer, 404, {
                    "error": {"type": "unknown_job", "job_id": rest},
                })
                return
            await self._respond(writer, 200, record.to_json())
            return
        await self._respond(writer, 404, {
            "error": {"type": "unknown_route", "path": path},
        })

    async def _handle_submit(self, query, body, writer) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except ValueError:
            await self._respond(writer, 400, {
                "error": {"type": "malformed_json"},
            })
            return
        try:
            status, record = self.submit(payload)
        except JobError as exc:
            await self._respond(writer, 400, {
                "error": {"type": "invalid_job", "detail": str(exc)},
            })
            return
        if "wait=1" in query.split("&") and status in (200, 202):
            await self.wait(record)
            status = 200 if record.status == "done" else (
                429 if record.status == "shed" else 500
            )
        await self._respond(writer, status, record.to_json())

    async def _handle_events(self, job_id: str, writer) -> None:
        record = self._records.get(job_id)
        if record is None:
            await self._respond(writer, 404, {
                "error": {"type": "unknown_job", "job_id": job_id},
            })
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()
        # Replay the buffer, then subscribe for live events; the buffer
        # snapshot and the subscription happen in one loop tick, so no
        # event is lost or duplicated in between.
        backlog = list(record.events)
        terminal = record.done.is_set()
        if not terminal:
            record.subscribers.append(queue)
        try:
            for event in backlog:
                await self._sse(writer, event)
            if terminal:
                return
            while True:
                event = await queue.get()
                if event is None:
                    return
                await self._sse(writer, event)
        finally:
            if queue in record.subscribers:
                record.subscribers.remove(queue)

    @staticmethod
    async def _sse(writer, event: Dict[str, Any]) -> None:
        writer.write(
            b"data: " + json.dumps(event, sort_keys=True).encode() + b"\n\n"
        )
        await writer.drain()

    _STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                    404: "Not Found", 429: "Too Many Requests",
                    500: "Internal Server Error"}

    async def _respond(self, writer, status: int,
                       body: Dict[str, Any]) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        text = self._STATUS_TEXT.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode() + data
        )
        await writer.drain()


async def run_server(config: Optional[ServeConfig] = None) -> None:
    """Boot a server and run until cancelled (the CLI entry point)."""
    server = VerificationServer(config)
    await server.start()
    print(f"repro serve listening on "
          f"http://{server.config.host}:{server.port} "
          f"({server.config.workers} worker(s), "
          f"queue={server.config.queue_limit})")
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()
