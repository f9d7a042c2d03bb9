"""The persistent pre-forked worker pool behind the serve layer.

:mod:`repro.parallel.pool` forks a fresh pool per batch — the right
trade for a CLI run, pure overhead for a server: every fork repays the
interpreter fork cost and starts with cold caches.  The serving pool
forks its workers **once**, at startup, and keeps them alive for the
process lifetime, so each worker accumulates warm state across jobs:

* the in-process exploration memo (``repro.memory.cache``),
* the promise-certification memo,
* the timeline interner,
* the per-process lookup accounting that ships back per-job cache
  deltas for the server's stats.

Workers must be forked **before** the asyncio event loop opens sockets
(fork duplicates fds); :meth:`WorkerPool.start` is therefore called by
the server before it binds.  Each worker owns an inbox queue (so the
server can route jobs with the same content-key affinity to the same
warm worker) and all workers share one outbox the parent drains from a
reader thread, bridging messages into the event loop via
``call_soon_threadsafe``.

Trace bridging: while a job runs, the worker installs a
:class:`_ForwardingSink` that ships a bounded number of coarse engine
events (spans, cache hits/misses, monitor stops — not the per-state
firehose) to the parent, which fans them out to the job's SSE
subscribers.  ``REPRO_SERVE_TRACE_EVENTS`` caps the count per job.

On platforms without ``fork`` — or with ``workers=0`` — the
:class:`InlinePool` fallback runs jobs on a single daemon thread in the
server process: same interface, same warm-memo behavior, no process
isolation (and no engine-event bridging, since the tracer sink is
process-global and the server thread may be using it).
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import config
from repro.obs import tracer

#: Engine event kinds a worker forwards to SSE subscribers.  Coarse,
#: bounded-rate events only: per-state kinds (``por_ample``,
#: ``promise_made``...) can fire thousands of times per job and belong
#: in ``--trace`` files, not on the wire.
FORWARDED_KINDS = (
    tracer.SPAN_BEGIN,
    tracer.SPAN_END,
    tracer.CACHE_HIT,
    tracer.CACHE_MISS,
    tracer.MONITOR_STOP,
)


class _ForwardingSink(tracer.TraceSink):
    """Tracer sink shipping whitelisted events to the pool outbox."""

    def __init__(self, outbox, widx: int, job_id: str, cap: int) -> None:
        super().__init__()
        self._outbox = outbox
        self._widx = widx
        self._job_id = job_id
        self._budget = cap

    def emit(self, kind: str, **data: Any) -> None:
        seq = self.next_seq()
        if kind not in FORWARDED_KINDS or self._budget <= 0:
            return
        self._budget -= 1
        payload = {"seq": seq, "kind": kind}
        payload.update(data)
        self._outbox.put(("event", self._widx, self._job_id, payload))


def _run_one(outbox, widx: int, job_id: str,
             payload: Dict[str, Any], cap: int) -> None:
    """Execute one job in the worker, shipping events + result back."""
    from repro.memory.cache import lookup_stats, reset_lookup_stats
    from repro.serve.jobs import execute_job

    reset_lookup_stats()
    previous = tracer.SINK
    if cap > 0:
        tracer.SINK = _ForwardingSink(outbox, widx, job_id, cap)
    try:
        result = execute_job(payload)
        outbox.put(("done", widx, job_id, result, lookup_stats()))
    except Exception as exc:  # noqa: BLE001 — worker must not die
        outbox.put((
            "error", widx, job_id,
            f"{type(exc).__name__}: {exc}", lookup_stats(),
        ))
    finally:
        tracer.SINK = previous


def _worker_main(widx: int, inbox, outbox, cap: int) -> None:
    """A worker process's whole life: drain the inbox until ``None``."""
    while True:
        msg = inbox.get()
        if msg is None:
            return
        for job_id, payload in msg:
            _run_one(outbox, widx, job_id, payload, cap)


#: Message callback type: receives the raw outbox tuples documented on
#: :class:`WorkerPool` (``("event"|"done"|"error", widx, job_id, ...)``).
MessageHandler = Callable[[Tuple[Any, ...]], None]


class WorkerPool:
    """N long-lived forked workers with per-worker inboxes.

    Outbox message shapes (what the handler receives):

    * ``("event", widx, job_id, payload)`` — one forwarded engine event
    * ``("done", widx, job_id, result, cache_stats)`` — job finished
    * ``("error", widx, job_id, message, cache_stats)`` — job raised

    ``cache_stats`` is the worker's per-job cache-lookup delta (the
    ``{"hits": {layer: n}, "misses": {...}}`` shape of
    :func:`repro.memory.cache.lookup_stats`).
    """

    def __init__(self, n_workers: int, handler: MessageHandler) -> None:
        self.n_workers = n_workers
        self._handler = handler
        self._ctx = multiprocessing.get_context("fork")
        self._inboxes: List[Any] = []
        self._outbox: Any = None
        self._procs: List[Any] = []
        self._reader: Optional[threading.Thread] = None
        self._stopping = False

    @staticmethod
    def supported() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def start(self) -> None:
        """Fork the workers (call before the event loop opens sockets)."""
        cap = config.get("serve_trace_events")
        self._outbox = self._ctx.Queue()
        for widx in range(self.n_workers):
            inbox = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(widx, inbox, self._outbox, cap),
                daemon=True,
                name=f"repro-serve-worker-{widx}",
            )
            proc.start()
            self._inboxes.append(inbox)
            self._procs.append(proc)
        self._reader = threading.Thread(
            target=self._drain, name="repro-serve-outbox", daemon=True
        )
        self._reader.start()

    def _drain(self) -> None:
        while True:
            msg = self._outbox.get()
            if msg is None:
                return
            try:
                self._handler(msg)
            except Exception:  # noqa: BLE001 — reader must survive
                if self._stopping:
                    return

    def submit(self, widx: int,
               batch: List[Tuple[str, Dict[str, Any]]]) -> None:
        """Queue a batch of ``(job_id, payload)`` on worker *widx*."""
        self._inboxes[widx % self.n_workers].put(batch)

    def stop(self) -> None:
        """Shut the pool down; pending inbox work is abandoned."""
        self._stopping = True
        for proc, inbox in zip(self._procs, self._inboxes):
            try:
                inbox.put(None)
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._outbox is not None:
            try:
                self._outbox.put(None)
            except (OSError, ValueError):
                pass
        if self._reader is not None:
            self._reader.join(timeout=2.0)


class InlinePool:
    """The ``workers=0`` / no-fork fallback: one daemon job thread.

    Jobs run in the server process (warm memo included — it is the
    *same* process) and report through the same message shapes as
    :class:`WorkerPool`, so the server code upstack does not branch.
    """

    n_workers = 1

    def __init__(self, handler: MessageHandler) -> None:
        self._handler = handler
        self._inbox: "queue.Queue[Any]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None

    @staticmethod
    def supported() -> bool:
        return True

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-inline", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        from repro.memory.cache import lookup_stats, reset_lookup_stats
        from repro.serve.jobs import execute_job

        while True:
            msg = self._inbox.get()
            if msg is None:
                return
            for job_id, payload in msg:
                reset_lookup_stats()
                try:
                    result = execute_job(payload)
                    self._handler(
                        ("done", 0, job_id, result, lookup_stats())
                    )
                except Exception as exc:  # noqa: BLE001
                    self._handler((
                        "error", 0, job_id,
                        f"{type(exc).__name__}: {exc}", lookup_stats(),
                    ))

    def submit(self, widx: int,
               batch: List[Tuple[str, Dict[str, Any]]]) -> None:
        self._inbox.put(batch)

    def stop(self) -> None:
        self._inbox.put(None)
        if self._thread is not None:
            self._thread.join(timeout=2.0)


def make_pool(n_workers: int, handler: MessageHandler):
    """The right pool for the configuration and platform."""
    if n_workers > 0 and WorkerPool.supported():
        return WorkerPool(n_workers, handler)
    return InlinePool(handler)
