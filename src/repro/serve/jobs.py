"""The serving layer's job model: parse, content-address, execute.

A *job* is one verification request in JSON form.  Three kinds cover
the engine's query surface:

``explore``
    Enumerate the behaviors of a conformance genome under one model
    (``sc`` or ``rm``), optionally through the BMC backend.
``wdrf``
    Run the six-condition wDRF verification of a ``sync``-profile
    genome, or of a named KCore primitive case (``case``).
``litmus``
    Run a named catalog test under both models.

Every job gets a **content address** derived from the engine's own
cache-key spaces (:func:`~repro.memory.cache.exploration_key`,
:func:`~repro.vrm.verifier.pass_fingerprints` over monitored keys) —
two requests share a key exactly when the engine would replay the same
cached computation for both.  Display names are deliberately excluded
(see :func:`~repro.memory.cache.program_fingerprint`): renaming a
genome must not defeat dedup.

:func:`execute_job` delegates straight to the library entry points
(:func:`~repro.memory.cache.cached_explore`,
:func:`~repro.vrm.verifier.verify_wdrf`,
:func:`~repro.litmus.runner.run_litmus`) so a served verdict is
bit-identical to the same call made directly — the property the bench
and the smoke test assert.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.config import BACKENDS
from repro.memory.cache import cached_explore, exploration_key
from repro.memory.exploration import por_default_enabled

#: Behaviors included verbatim in a result document; past the cap only
#: the digest and the count are reported (a relaxed genome can admit
#: thousands of behaviors, and result documents ride the hot tier).
MAX_BEHAVIORS = 64

_MODELS = ("sc", "tso", "rm")


class JobError(ValueError):
    """A request that cannot become a job (bad kind, malformed genome,
    unknown litmus test/KCore case...).  The server maps it to a 400."""


@dataclass(frozen=True)
class Job:
    """One parsed, content-addressed verification job."""

    kind: str
    key: str                   # content address (hex digest)
    payload: Dict[str, Any]    # canonical JSON-ready form


def _require(data: Dict[str, Any], field: str) -> Any:
    if field not in data:
        raise JobError(f"job is missing required field {field!r}")
    return data[field]


def _genome_of(data: Dict[str, Any], profiles: Optional[tuple] = None):
    from repro.conformance.genome import Genome, valid

    try:
        genome = Genome.from_json(_require(data, "genome"))
    except JobError:
        raise
    except Exception as exc:
        raise JobError(f"malformed genome: {exc}") from exc
    if not valid(genome):
        raise JobError(f"invalid genome {genome.name!r} "
                       f"(profile {genome.profile!r})")
    if profiles is not None and genome.profile not in profiles:
        raise JobError(
            f"kind requires a profile in {profiles!r}, "
            f"got {genome.profile!r}"
        )
    return genome


def _explore_cfg(model: str, max_promises: int):
    from repro.litmus.runner import SC_CFG, TSO_CFG, rm_config

    if model == "sc":
        return SC_CFG
    if model == "tso":
        return TSO_CFG
    return rm_config(max_promises)


def _wdrf_spec(payload: Dict[str, Any]):
    """The :class:`~repro.vrm.verifier.WDRFSpec` of a wdrf job."""
    if "case" in payload:
        from repro.cli import _find_sekvm_case

        try:
            return _find_sekvm_case(str(payload["case"])).spec
        except SystemExit as exc:
            raise JobError(str(exc)) from exc
    from repro.conformance.genome import build, shared_locations
    from repro.vrm.verifier import WDRFSpec

    genome = _genome_of(payload, profiles=("sync",))
    return WDRFSpec(
        program=build(genome), shared_locs=shared_locations(genome)
    )


def _litmus_test(payload: Dict[str, Any]):
    from repro.litmus import full_corpus

    name = str(_require(payload, "test"))
    for test in full_corpus():
        if test.name.lower() == name.lower():
            return test
    raise JobError(f"unknown litmus test {name!r}")


def parse_job(data: Dict[str, Any]) -> Job:
    """Validate a request body and compute its content address.

    Raises :class:`JobError` on anything malformed.  The returned
    payload is canonical (defaults filled in), so re-parsing it yields
    the same key.
    """
    if not isinstance(data, dict):
        raise JobError("job body must be a JSON object")
    kind = str(_require(data, "kind"))
    por = por_default_enabled()

    if kind == "explore":
        genome = _genome_of(data)
        model = str(data.get("model", "rm"))
        if model not in _MODELS:
            raise JobError(f"model must be one of {_MODELS!r}, got {model!r}")
        max_promises = int(data.get("max_promises", 2))
        backend = str(data.get("backend", "explore"))
        if backend not in BACKENDS:
            raise JobError(
                f"backend must be one of {BACKENDS!r}, got {backend!r}"
            )
        from repro.conformance.genome import build

        cfg = _explore_cfg(model, max_promises)
        base = exploration_key(build(genome), cfg, None, False, por)
        key = _digest("explore", base, f"backend={backend}")
        payload = {
            "kind": "explore",
            "genome": genome.to_json(),
            "model": model,
            "max_promises": max_promises,
            "backend": backend,
        }
        return Job(kind=kind, key=key, payload=payload)

    if kind == "wdrf":
        from repro.vrm.verifier import pass_fingerprints

        spec = _wdrf_spec(data)
        key = _digest("wdrf", *pass_fingerprints(spec, por=por))
        payload = {"kind": "wdrf"}
        if "case" in data:
            payload["case"] = str(data["case"])
        else:
            payload["genome"] = _genome_of(data, profiles=("sync",)).to_json()
        return Job(kind=kind, key=key, payload=payload)

    if kind == "litmus":
        from repro.litmus.runner import SC_CFG, rm_config

        test = _litmus_test(data)
        observe = sorted(loc for loc, _ in test.memory_condition)
        sc = exploration_key(test.program, SC_CFG, tuple(observe), False, por)
        rm = exploration_key(
            test.program, rm_config(test.max_promises), tuple(observe),
            False, por,
        )
        key = _digest("litmus", sc, rm)
        return Job(kind=kind, key=key,
                   payload={"kind": "litmus", "test": test.name})

    raise JobError(
        f"unknown job kind {kind!r} (expected explore, wdrf, or litmus)"
    )


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# execution (runs inside a pool worker — or inline with workers=0)


def _run_explore(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.conformance.digests import behavior_digest
    from repro.conformance.genome import Genome, build

    program = build(Genome.from_json(payload["genome"]))
    cfg = _explore_cfg(payload["model"], int(payload["max_promises"]))
    backend = payload["backend"]
    result = None
    if backend == "bmc":
        from repro.smt.backend import bmc_explore, bmc_supported
        from repro.smt.encode import Unsupported

        if bmc_supported(program, cfg) is None:
            try:
                result = bmc_explore(program, cfg)
            except Unsupported:
                result = None
    if result is None:
        result = cached_explore(program, cfg)
    pretty = sorted(b.pretty() for b in result.behaviors)
    return {
        "kind": "explore",
        "program": program.name,
        "model": payload["model"],
        "behavior_digest": behavior_digest(result),
        "n_behaviors": len(result.behaviors),
        "behaviors": pretty[:MAX_BEHAVIORS],
        "behaviors_truncated": len(pretty) > MAX_BEHAVIORS,
        "states_explored": result.states_explored,
        "complete": result.complete,
    }


def _run_wdrf(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.vrm.verifier import verify_wdrf

    spec = _wdrf_spec(payload)
    report = verify_wdrf(spec)
    conditions = {
        cond.value: {
            "holds": res.holds,
            "exhaustive": res.exhaustive,
            "violations": list(res.violations),
        }
        for cond, res in sorted(
            report.results.items(), key=lambda kv: kv[0].value
        )
    }
    out = {
        "kind": "wdrf",
        "subject": report.subject,
        "weakened": report.weakened,
        "all_hold": report.all_hold,
        "all_verified": report.all_verified,
        "conditions": conditions,
        "counterexample": None,
    }
    if not report.all_hold:
        out["counterexample"] = _render_counterexample(spec)
    return out


def _render_counterexample(spec) -> Optional[str]:
    """A rendered witness for a failed wDRF report, when one exists.

    Only the DRF/ownership flavor has a traced-search explainer today;
    other violations return ``None`` and clients fall back to the
    per-condition ``violations`` strings.
    """
    from repro.obs.render import explain_drf_violation, render_explanation

    trace = explain_drf_violation(
        spec.program, spec.shared_locs, spec.initial_ownership,
        **spec.overrides(),
    )
    if trace is None:
        return None
    return render_explanation(
        trace, spec.program,
        title=f"wDRF counterexample: {spec.program.name!r}",
        notes=("witness: an execution panicking under the push/pull "
               "ownership discipline",),
    )


def _run_litmus(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.conformance.digests import behavior_digest
    from repro.litmus.runner import run_litmus

    outcome = run_litmus(_litmus_test(payload))
    return {
        "kind": "litmus",
        "test": outcome.test.name,
        "passed": outcome.passed,
        "observed_sc": outcome.observed_sc,
        "observed_rm": outcome.observed_rm,
        "sc_digest": behavior_digest(outcome.sc),
        "rm_digest": behavior_digest(outcome.rm),
    }


_RUNNERS = {
    "explore": _run_explore,
    "wdrf": _run_wdrf,
    "litmus": _run_litmus,
}


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one canonical job payload; returns the JSON result document.

    Pure delegation to the library entry points — no serving-layer
    state — so results are bit-identical to direct calls and safe to
    cache under the job's content address.
    """
    return _RUNNERS[payload["kind"]](payload)
