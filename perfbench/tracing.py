"""Span tracing around the engine's public functions, from outside.

The traced run wraps the *name bindings callers actually use*: after
``from repro.memory.semantics import execute_instruction`` the explorer
holds its own reference, so ``repro.memory.exploration.execute_instruction``
and ``repro.memory.semantics.execute_instruction`` are patched
separately (the second one is what certification searches call).

Every wrapped call is a span.  Self time is computed online: a span's
duration minus the durations of the spans nested directly inside it, so
the self times of all spans add up exactly to the durations of the
outermost ones.  Hot spans (one per step, key or POR decision) are only
aggregated; coarse spans (one per exploration, report, query or job)
are also kept as records — name, start, end, parent, run id — in
memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> the per-layer self-time metric it is charged to.
LAYER_OF: Dict[str, str] = {
    "explore": "explore.self_s",
    "execute_instruction": "step.self_s",
    "tso_flush_steps": "step.flush_self_s",
    "promise_steps": "cert.self_s",
    "certify": "cert.self_s",
    "collect_promise_candidates": "cert.self_s",
    "StateInterner.key": "intern.self_s",
    "por_worthwhile": "por.self_s",
    "PORPlan.ample_thread": "por.self_s",
    "cached_explore": "cache.self_s",
    "exploration_key": "cache.key_self_s",
    "monitored_exploration_key": "cache.key_self_s",
    "verify_wdrf": "verifier.self_s",
    "run_condition_group": "verifier.self_s",
    "plan_passes": "verifier.plan_self_s",
    "check_program_transactional": "vrm.transactional_self_s",
    "bmc_supported": "smt.self_s",
    "bmc_explore": "smt.self_s",
    "parse_job": "serve.parse_self_s",
    "VerificationServer.submit": "serve.submit_self_s",
    "HotTier.get": "serve.hot_self_s",
    "HotTier.put": "serve.hot_self_s",
    "disk_load": "serve.disk_load_s",
    "disk_store": "serve.disk_store_s",
    "execute_job": "serve.execute_self_s",
}

#: Spans kept as individual records (everything else is aggregated).
RECORDED = frozenset({
    "explore", "cached_explore", "verify_wdrf", "run_condition_group",
    "plan_passes", "bmc_explore", "parse_job", "VerificationServer.submit",
    "execute_job", "disk_load", "disk_store",
})

#: Spans inside which a step counts as certification work.
CERT_SCOPES = frozenset({"certify", "collect_promise_candidates"})

#: (module, attribute) bindings to wrap, with the span name each gets.
#: Class attributes are written ``Class.method``.
BINDINGS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.memory.cache", "explore", "explore"),
    ("repro.memory.exploration", "execute_instruction", "execute_instruction"),
    ("repro.memory.semantics", "execute_instruction", "execute_instruction"),
    ("repro.memory.exploration", "tso_flush_steps", "tso_flush_steps"),
    ("repro.memory.exploration", "promise_steps", "promise_steps"),
    ("repro.memory.semantics", "certify", "certify"),
    ("repro.memory.semantics", "collect_promise_candidates",
     "collect_promise_candidates"),
    ("repro.memory.state", "StateInterner.key", "StateInterner.key"),
    ("repro.memory.exploration", "por_worthwhile", "por_worthwhile"),
    ("repro.memory.por", "PORPlan.ample_thread", "PORPlan.ample_thread"),
    ("repro.memory.cache", "cached_explore", "cached_explore"),
    ("repro.vrm.verifier", "cached_explore", "cached_explore"),
    ("repro.serve.jobs", "cached_explore", "cached_explore"),
    ("repro.litmus.runner", "cached_explore", "cached_explore"),
    ("repro.memory.cache", "exploration_key", "exploration_key"),
    ("repro.memory.cache", "monitored_exploration_key",
     "monitored_exploration_key"),
    ("repro.vrm.verifier", "exploration_key", "exploration_key"),
    ("repro.vrm.verifier", "monitored_exploration_key",
     "monitored_exploration_key"),
    ("repro.serve.jobs", "exploration_key", "exploration_key"),
    ("repro.sekvm.verify", "verify_wdrf", "verify_wdrf"),
    ("repro.vrm.verifier", "verify_wdrf", "verify_wdrf"),
    ("repro.vrm.verifier", "plan_passes", "plan_passes"),
    ("repro.vrm.verifier", "run_condition_group", "run_condition_group"),
    ("repro.vrm.verifier", "check_program_transactional",
     "check_program_transactional"),
    ("repro.smt.backend", "bmc_supported", "bmc_supported"),
    ("repro.smt.backend", "bmc_explore", "bmc_explore"),
    ("repro.serve.server", "parse_job", "parse_job"),
    ("repro.serve.server", "VerificationServer.submit",
     "VerificationServer.submit"),
    ("repro.serve.hot_tier", "HotTier.get", "HotTier.get"),
    ("repro.serve.hot_tier", "HotTier.put", "HotTier.put"),
    ("repro.serve.hot_tier", "disk_load", "disk_load"),
    ("repro.serve.hot_tier", "disk_store", "disk_store"),
    ("repro.serve.jobs", "execute_job", "execute_job"),
)

#: ``EngineStats`` fields summed over every exploration a run makes.
ENGINE_FIELDS = (
    "certify_calls", "certify_memo_hits", "candidate_calls",
    "candidate_memo_hits", "cert_budget_hits", "successors_generated",
    "por_ample_hits", "interner_timelines", "por_gate_skips",
)


class Tracer:
    """In-memory span recorder with online self-time accounting.

    ``clock`` is injectable so tests can drive synthetic span trees.
    """

    def __init__(self, run_id: str, clock: Callable[[], float]) -> None:
        self.run_id = run_id
        self.clock = clock
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (the patches stay)."""
        # One accumulator per open span: seconds covered by its children.
        self._stack: List[float] = []
        # Record ids of the open recorded spans (for parent links).
        self._open: List[int] = []
        self.cert_depth = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.step_cert_self_s = 0.0
        self.root_s = 0.0
        self.last_end = 0.0
        self.verify_stats: Any = None
        self.spans: List[Tuple[int, str, float, float, Optional[int], str]] = []

    # ------------------------------------------------------------------
    # span bracketing

    def _close(self, name: str, start: float) -> float:
        """End the innermost open span; returns its self seconds."""
        self.last_end = self.clock()
        dur = self.last_end - start
        own = dur - self._stack.pop()
        self.self_s[name] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dur
        else:
            self.root_s += dur
        return own

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """A span-recording stand-in for *fn*."""
        tracer = self

        if name in RECORDED:
            def recorded(*args, **kwargs):
                parent = tracer._open[-1] if tracer._open else None
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on exit
                tracer._open.append(span_id)
                tracer._stack.append(0.0)
                start = tracer.clock()
                try:
                    result = fn(*args, **kwargs)
                    if on_result is not None:
                        on_result(result)
                    return result
                finally:
                    tracer._close(name, start)
                    tracer._open.pop()
                    tracer.spans[span_id] = (
                        span_id, name, start, tracer.last_end, parent,
                        tracer.run_id,
                    )
            return recorded

        if name in CERT_SCOPES:
            def cert_scope(*args, **kwargs):
                tracer.cert_depth += 1
                tracer._stack.append(0.0)
                start = tracer.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(name, start)
                    tracer.cert_depth -= 1
            return cert_scope

        if name == "execute_instruction":
            def step(*args, **kwargs):
                tracer._stack.append(0.0)
                start = tracer.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    own = tracer._close(name, start)
                    if tracer.cert_depth:
                        tracer.step_cert_self_s += own
            return step

        def hot(*args, **kwargs):
            tracer._stack.append(0.0)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, start)
        return hot

    # ------------------------------------------------------------------
    # installing into the program

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` restores it."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(
        self, hooks: Optional[Dict[str, Callable[[Any], None]]] = None,
    ) -> None:
        """Wrap every binding in :data:`BINDINGS`.

        ``hooks`` maps a recorded span name to a callback that receives
        each call's return value.
        """
        hooks = dict(hooks or {})
        hooks.setdefault("explore", self._absorb_engine)
        for module_name, attr, name in BINDINGS:
            owner: Any = importlib.import_module(module_name)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            if name == "verify_wdrf":
                fn = self._collecting(fn)
            self.patch(owner, attr, self.wrap(fn, name, hooks.get(name)))

    def _collecting(self, fn: Callable) -> Callable:
        """*fn* (``verify_wdrf``) with ``collect=`` set to this tracer's
        ``VerifyStats``, so the verifier's own counters are gathered."""
        tracer = self

        def verify_wdrf(spec, *args, **kwargs):
            if tracer.verify_stats is None:
                from repro.vrm.verifier import VerifyStats

                tracer.verify_stats = VerifyStats()
            kwargs.setdefault("collect", tracer.verify_stats)
            return fn(spec, *args, **kwargs)

        return verify_wdrf

    def uninstall(self) -> None:
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _absorb_engine(self, result: Any) -> None:
        self.counters["explore.states"] += result.states_explored
        stats = result.stats
        if stats is not None:
            for field in ENGINE_FIELDS:
                self.counters[field] += getattr(stats, field)

    # ------------------------------------------------------------------
    # results

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready aggregates and span records."""
        return {
            "run_id": self.run_id,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "step_cert_self_s": self.step_cert_self_s,
            "root_s": self.root_s,
            "verify": (None if self.verify_stats is None
                       else self.verify_stats.as_dict()),
            "spans": [s for s in self.spans if s is not None],
        }


def layer_self(snaps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per layer metric (see :data:`LAYER_OF`), summed over
    the given :meth:`Tracer.snapshot` results."""
    out: Dict[str, float] = defaultdict(float)
    for snap in snaps:
        for name, seconds in snap["self_s"].items():
            out[LAYER_OF.get(name, name)] += seconds
    return dict(out)


def install_worker_dump(tracer: Tracer, out_dir: str) -> None:
    """Make forked serve workers write their spans to *out_dir* on exit.

    The worker pool forks after the wrappers are installed, so workers
    inherit them; what they record stays in the worker's memory until
    its main loop returns, when this hook writes one JSON file per
    worker process.
    """
    from repro.serve import workers

    original = workers._worker_main

    def worker_main(*args, **kwargs):
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tracer.snapshot(), fh)

    tracer.patch(workers, "_worker_main", worker_main)


def load_worker_dumps(out_dir: str) -> List[Dict[str, Any]]:
    """Every worker snapshot written under *out_dir*."""
    snaps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                snaps.append(json.load(fh))
    return snaps
