"""Multiprocess fan-out for independent verification jobs.

Litmus tests, per-condition wDRF checks, and per-interface SeKVM
verifications are embarrassingly parallel: each job explores its own
program and the results are merged by position.  :func:`parallel_map`
is the single primitive the verification layers build on — a
``multiprocessing`` pool behind a serial fallback, always returning
results in input order so parallel runs are bit-identical to serial
ones.

Libraries default to serial (``jobs=None``); the CLI resolves its
``--jobs`` flag with :func:`default_jobs`, which counts the CPUs the
process may actually run on (:func:`available_cpus` — affinity-mask
aware, re-read on every call, never cached at import time).
"""

from repro.parallel.pool import (
    JobPlan,
    available_cpus,
    default_jobs,
    parallel_map,
    plan_jobs,
    resolve_jobs,
)

__all__ = ["JobPlan", "available_cpus", "default_jobs", "parallel_map",
           "plan_jobs", "resolve_jobs"]
