"""The process-pool primitive behind every ``jobs=N`` knob.

Design constraints, in order:

1. **Determinism.**  ``Pool.map`` preserves input order, so the merged
   result list is identical to the serial one no matter how the OS
   schedules workers.  Nothing here may reorder results.
2. **Graceful degradation.**  ``jobs<=1``, a single-item batch, or a
   platform without ``fork`` all run serially in-process; callers never
   branch on platform.
3. **Picklability.**  Workers must be module-level callables (or
   :func:`functools.partial` over one); exploration inputs and results
   are plain immutable dataclasses/named-tuples, picklable by design.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, TypeVar

from repro.obs import metrics, tracer

T = TypeVar("T")
R = TypeVar("R")

#: Below this many batch items per worker, forking a pool costs more
#: than it saves (process spawn + pickle round-trips dominate).
MIN_ITEMS_PER_WORKER = 2


def available_cpus() -> int:
    """CPUs this process may actually run on, re-read on every call.

    ``os.cpu_count()`` reports the machine, not the process: under a
    CPU-affinity mask (containers, ``taskset``, cgroup pinning) the
    usable count is ``sched_getaffinity``, which can also *change* while
    a long-lived server runs.  Nothing here is cached at import time —
    the serve layer's persistent workers and the tests must both see the
    value current at the moment a plan is made.
    """
    count = os.cpu_count() or 1
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is None:
        return count
    try:
        affinity = len(getaffinity(0))
    except OSError:
        return count
    return min(count, affinity) if affinity else count


def default_jobs() -> int:
    """The CLI's default parallelism: one worker per available CPU."""
    return available_cpus()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request to a concrete worker count.

    ``None`` and ``0`` mean serial (the library default — parallelism is
    opt-in); a negative count means "all CPUs" (what the CLI passes for
    its cpu-count default); anything else is taken literally.
    """
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return default_jobs()
    return jobs


class JobPlan(NamedTuple):
    """The resolved fan-out decision for one :func:`parallel_map` batch.

    ``reason`` says why ``workers`` was chosen, so a "parallel" run
    that is no faster than serial can be traced to the machine or the
    batch, not guessed at.
    """

    workers: int      # what the batch will actually run with
    requested: int    # resolve_jobs() of the caller's request
    cpus: int         # available_cpus() at decision time
    batch: int        # number of items
    reason: str       # why workers was chosen


def plan_jobs(jobs: Optional[int], batch_size: int) -> JobPlan:
    """Resolve a ``jobs`` request against the machine and the batch.

    The auto heuristic exists because forking is not free: on a
    single-CPU machine a process pool is pure overhead (measured 0.40–
    0.82x "speedups"), and a batch with fewer than
    :data:`MIN_ITEMS_PER_WORKER` items per worker cannot amortize the
    spawn + pickle cost.  The plan therefore degrades a parallel request
    to fewer workers (or to serial) whenever the fan-out cannot win, and
    says why.
    """
    requested = resolve_jobs(jobs)
    cpus = available_cpus()

    def _plan(workers: int, reason: str) -> JobPlan:
        return JobPlan(workers, requested, cpus, batch_size, reason)

    if requested <= 1:
        return _plan(1, "serial-requested")
    if batch_size < 2:
        return _plan(1, "batch-too-small")
    if cpus == 1:
        return _plan(1, "single-cpu")
    workers = min(requested, cpus, batch_size)
    if batch_size < workers * MIN_ITEMS_PER_WORKER:
        workers = max(batch_size // MIN_ITEMS_PER_WORKER, 1)
        return _plan(max(workers, 1), "fork-amortization")
    reason = "parallel" if workers == requested else "capped-at-cpus"
    return _plan(workers, reason)


def _run_with_metrics(fn: Callable[[T], R], item: T):
    """Pool worker wrapper shipping the child's metrics to the parent.

    The child's registry is **reset before** running the item: the
    worker was forked from a parent that may already hold accumulated
    metrics, and without the reset each worker would re-report the
    parent's pre-fork state once per item.  After running, the item's
    own metric deltas ride back alongside the result as a snapshot for
    the parent to merge.  Module-level (not a closure) so it pickles.
    """
    metrics.enable()
    metrics.REGISTRY.reset()
    result = fn(item)
    return result, metrics.REGISTRY.snapshot()


def _run_with_trace(fn: Callable[[T], R], max_events: int, item: T):
    """Pool worker wrapper shipping the child's trace events to the parent.

    The fork-inherited sink belongs to the parent; the item runs under a
    fresh :class:`~repro.obs.tracer.RecordingSink` instead, whose events
    (and drop count) ride back alongside the result, the way
    :func:`_run_with_metrics` ships metrics.  Module-level so it pickles.
    """
    previous = tracer.SINK
    rec = tracer.install(tracer.RecordingSink(max_events=max_events))
    try:
        result = fn(item)
    finally:
        tracer.SINK = previous
    events = [(e.kind, dict(e.data)) for e in rec.events]
    return result, events, rec.dropped


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
) -> List[R]:
    """Apply *fn* to every item, fanning out over *jobs* processes.

    Results come back in input order (deterministic merging).  The
    fan-out follows :func:`plan_jobs`: serial when requested, when the
    machine has one CPU, or when the batch is too small to amortize the
    fork — parallel runs stay bit-identical to serial ones either way.

    When metrics are enabled (:func:`repro.obs.metrics.metrics_enabled`)
    each worker ships a per-item registry snapshot back with its result
    and the parent merges them, so ``--metrics-out`` totals cover the
    whole pool, not just the parent process.  Likewise, when a trace
    sink is installed, each worker records its item's events and the
    parent re-emits them into its sink in input order, so a ``--trace``
    file covers the pool too.
    """
    batch = list(items)
    plan = plan_jobs(jobs, len(batch))
    if plan.workers <= 1:
        return [fn(item) for item in batch]
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else None
    ctx = multiprocessing.get_context(method)
    sink = tracer.SINK
    work = fn
    if sink is not None:
        max_events = getattr(sink, "max_events", 100_000)
        work = functools.partial(_run_with_trace, work, max_events)
    collect_metrics = metrics.metrics_enabled()
    if collect_metrics:
        work = functools.partial(_run_with_metrics, work)
    with ctx.Pool(processes=plan.workers) as pool:
        results = pool.map(work, batch)
    if collect_metrics:
        for _, snap in results:
            metrics.REGISTRY.merge(snap)
        metrics.REGISTRY.counter("pool.batches").inc()
        metrics.REGISTRY.counter("pool.items").inc(len(batch))
        metrics.REGISTRY.gauge("pool.workers").set(plan.workers)
        results = [result for result, _ in results]
    if sink is not None:
        for _, events, dropped in results:
            sink.replay(events, dropped)
        results = [result for result, _, _ in results]
    return results
