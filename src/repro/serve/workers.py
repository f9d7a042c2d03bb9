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
the server before it binds.  Each worker owns two pipes: an inbox that
carries one job at a time and an outbox for its events and results.
One reader thread in the parent waits on every outbox and every
worker's ``Process.sentinel``, and bridges messages into the event loop
via the handler (the server uses ``call_soon_threadsafe``).

A worker that dies is replaced: the reader thread first relays what
the dead worker had already sent, then reports ``("lost", widx,
exit_code)``.  The server fails the job that worker was running and
calls :meth:`WorkerPool.replace`, which forks the successor on the
server's own thread.  The successor is forked after the server has
bound, so it inherits the listening socket; it never touches it, and
:meth:`WorkerPool.stop` reaps it like any other worker.

Trace bridging: while a job runs, the worker installs a
:class:`_ForwardingSink` that ships at most :data:`TRACE_EVENTS` coarse
engine events (spans, cache hits/misses, monitor stops — not the
per-state firehose) to the parent, which fans them out to the job's SSE
subscribers.

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
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

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

#: The most engine events one job forwards.
TRACE_EVENTS = 256


class _ForwardingSink(tracer.TraceSink):
    """Tracer sink shipping whitelisted events to the worker's outbox."""

    def __init__(self, outbox, widx: int, job_id: str) -> None:
        super().__init__()
        self._outbox = outbox
        self._widx = widx
        self._job_id = job_id
        self._budget = TRACE_EVENTS

    def emit(self, kind: str, **data: Any) -> None:
        seq = self.next_seq()
        if kind not in FORWARDED_KINDS or self._budget <= 0:
            return
        self._budget -= 1
        payload = {"seq": seq, "kind": kind}
        payload.update(data)
        self._outbox.send(("event", self._widx, self._job_id, payload))


def run_job(widx: int, job_id: str,
            payload: Dict[str, Any]) -> Tuple[Any, ...]:
    """Execute one job; return its ``done`` or ``error`` message."""
    from repro.memory.cache import lookup_stats, reset_lookup_stats
    from repro.serve.jobs import execute_job

    reset_lookup_stats()
    try:
        return ("done", widx, job_id, execute_job(payload), lookup_stats())
    except Exception as exc:  # noqa: BLE001 — a job must not kill its worker
        return ("error", widx, job_id, f"{type(exc).__name__}: {exc}",
                lookup_stats())


def _worker_main(widx: int, inbox, outbox) -> None:
    """A worker process's whole life: run inbox jobs until ``None``."""
    while True:
        msg = inbox.recv()
        if msg is None:
            return
        job_id, payload = msg
        previous = tracer.SINK
        tracer.SINK = _ForwardingSink(outbox, widx, job_id)
        try:
            outbox.send(run_job(widx, job_id, payload))
        finally:
            tracer.SINK = previous


#: Message callback type: receives the raw tuples documented on
#: :class:`WorkerPool` (``(kind, widx, ...)``).
MessageHandler = Callable[[Tuple[Any, ...]], None]


class WorkerPool:
    """N long-lived forked workers, each fed one job at a time.

    Message shapes (what the handler receives):

    * ``("event", widx, job_id, payload)`` — one forwarded engine event
    * ``("done", widx, job_id, result, cache_stats)`` — job finished
    * ``("error", widx, job_id, message, cache_stats)`` — job raised
    * ``("lost", widx, exit_code)`` — worker *widx* died; every message
      it sent came before this one, and :meth:`replace` forks its
      successor

    ``cache_stats`` is the worker's per-job cache-lookup delta (the
    ``{"hits": {layer: n}, "misses": {...}}`` shape of
    :func:`repro.memory.cache.lookup_stats`).
    """

    def __init__(self, n_workers: int, handler: MessageHandler) -> None:
        self.n_workers = n_workers
        self._handler = handler
        self._ctx = multiprocessing.get_context("fork")
        self._procs: List[Any] = [None] * n_workers
        self._inboxes: List[Any] = [None] * n_workers
        # None while a dead worker awaits its replacement.
        self._outboxes: List[Any] = [None] * n_workers
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._reader: Optional[threading.Thread] = None
        self._stopping = False

    @staticmethod
    def supported() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def start(self) -> None:
        """Fork the workers (call before the event loop opens sockets)."""
        for widx in range(self.n_workers):
            self._spawn(widx)
        self._reader = threading.Thread(
            target=self._read, name="repro-serve-outbox", daemon=True
        )
        self._reader.start()

    def _spawn(self, widx: int) -> None:
        inbox_r, inbox_w = self._ctx.Pipe(duplex=False)
        outbox_r, outbox_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main, args=(widx, inbox_r, outbox_w),
            daemon=True, name=f"repro-serve-worker-{widx}",
        )
        proc.start()
        # Only the worker keeps its ends, so writing to a dead worker's
        # inbox fails instead of filling a pipe nobody reads.
        inbox_r.close()
        outbox_w.close()
        # The outbox goes last: the reader thread takes a set outbox to
        # mean that the process beside it is current.
        self._procs[widx] = proc
        self._inboxes[widx] = inbox_w
        self._outboxes[widx] = outbox_r

    def replace(self, widx: int) -> None:
        """Fork a successor for lost worker *widx*.

        Called on the thread that started the pool, never on the reader
        thread: a fork copies only the forking thread, so forking from
        the reader could leave a lock that the server's thread holds
        locked forever in the child.
        """
        if self._stopping:
            return
        self._spawn(widx)
        self._wake_w.send(None)

    def _deliver(self, msg: Tuple[Any, ...]) -> None:
        try:
            self._handler(msg)
        except Exception:  # noqa: BLE001 — the reader must survive
            pass

    def _relay(self, outbox) -> bool:
        """Hand one message from *outbox* to the handler; False at EOF."""
        try:
            msg = outbox.recv()
        except (EOFError, OSError):
            return False
        self._deliver(msg)
        return True

    def _read(self) -> None:
        """The reader thread: relay messages and report lost workers
        until :meth:`stop` has seen every worker exit."""
        while True:
            owner: Dict[Any, int] = {}
            for widx, outbox in enumerate(self._outboxes):
                if outbox is not None:
                    owner[outbox] = widx
                    owner[self._procs[widx].sentinel] = widx
            if self._stopping and not owner:
                return
            ready = wait([self._wake_r, *owner])
            for obj in ready:
                if obj is self._wake_r:
                    obj.recv()
                elif not isinstance(obj, int):
                    self._relay(obj)
            for obj in ready:
                if isinstance(obj, int):
                    self._exited(owner[obj])

    def _exited(self, widx: int) -> None:
        """Worker *widx* has exited: relay what it sent, then report it
        lost unless the pool is stopping."""
        proc, outbox = self._procs[widx], self._outboxes[widx]
        while outbox.poll() and self._relay(outbox):
            pass
        proc.join()
        outbox.close()
        self._outboxes[widx] = None
        if not self._stopping:
            self._deliver(("lost", widx, proc.exitcode))

    def submit(self, widx: int, job_id: str, payload: Dict[str, Any]) -> None:
        """Send one job to idle worker *widx*."""
        try:
            self._inboxes[widx].send((job_id, payload))
        except OSError:
            pass  # the worker died; the reader thread reports the loss

    def stop(self) -> None:
        """Shut the pool down; a job still running is abandoned."""
        self._stopping = True
        for inbox in self._inboxes:
            try:
                inbox.send(None)
            except OSError:
                pass
        self._wake_w.send(None)
        if self._reader is not None:
            self._reader.join(timeout=2.0)
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            self._reader.join(timeout=2.0)
        for conn in (*self._inboxes, self._wake_r, self._wake_w):
            if conn is not None:
                conn.close()


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

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-inline", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            msg = self._inbox.get()
            if msg is None:
                return
            self._handler(run_job(0, *msg))

    def submit(self, widx: int, job_id: str, payload: Dict[str, Any]) -> None:
        self._inbox.put((job_id, payload))

    def stop(self) -> None:
        self._inbox.put(None)
        if self._thread is not None:
            self._thread.join(timeout=2.0)


def make_pool(n_workers: int, handler: MessageHandler):
    """The right pool for the configuration and platform."""
    if n_workers > 0 and WorkerPool.supported():
        return WorkerPool(n_workers, handler)
    return InlinePool(handler)
