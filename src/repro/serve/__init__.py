"""Verification-as-a-service: the ``repro serve`` HTTP layer.

The engine work (POR, memoization, pass fusion) made individual
queries fast; this package serves them over HTTP to clients verifying
overlapping kernels.  The load-bearing observation is that real query
mixes are duplicate-heavy — the same litmus shapes, the same KCore
primitives, near-identical fuzzer genomes — so the server's job is to
make sure each distinct computation runs **once**:

* **Content addressing** (:mod:`repro.serve.jobs`): every job is keyed
  by the same fingerprint spaces the engine cache uses
  (:func:`~repro.memory.cache.exploration_key`,
  :func:`~repro.memory.cache.monitored_exploration_key` via
  :func:`~repro.vrm.verifier.pass_fingerprints`), so a repeated request
  is recognized *before* any engine work.
* **Hot tier** (:mod:`repro.serve.hot_tier`): a sized in-memory LRU of
  finished results over the disk layer — repeat hits are served without
  touching a worker.
* **Coalescing** (:mod:`repro.serve.server`): an in-flight request with
  the same key attaches to the running computation instead of queueing
  a second one.
* **A bounded queue** (:mod:`repro.serve.server`): when it is full the
  oldest queued job is shed with a typed 429, so the server degrades by
  refusing cold work, never by falling over.  Warm answers (hot tier,
  disk, coalesce) never queue, so they are never shed.
* **Persistent workers** (:mod:`repro.serve.workers`): a pre-forked
  pool of long-lived processes whose interner/memo/exploration caches
  stay warm across jobs — replacing the fork-per-call pattern of
  :mod:`repro.parallel.pool` for the serving path.  Each idle worker
  takes the oldest queued job, one at a time; a worker that dies fails
  its job with ``worker_lost`` and is replaced.

:mod:`repro.serve.traffic` drives the conformance fuzzer's genome
generator as a synthetic traffic source for perfbench's ``serve_mixed``
workload and the serve tests.  See ``docs/SERVING.md`` for the HTTP API, job
lifecycle, and SSE event schema.
"""

from repro.serve.jobs import Job, JobError, execute_job, parse_job
from repro.serve.server import ServeConfig, VerificationServer

__all__ = [
    "Job",
    "JobError",
    "ServeConfig",
    "VerificationServer",
    "execute_job",
    "parse_job",
]
