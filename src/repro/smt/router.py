"""Cost-model routing between the exploration and BMC backends.

Exploration cost grows with the interleaving count — roughly the
multinomial coefficient of the per-thread event counts, further
multiplied by promise certification on the relaxed model.  BMC cost
grows with the clause count, which is polynomial (cubic in the event
count, from order-relation transitivity).  The router estimates both
from cheap structural features and sends each query to the predicted
cheaper backend; a prior cached exploration always wins (replaying it
is free).

Knobs (documented in docs/API.md):

* ``REPRO_BACKEND`` — ``explore`` (default), ``bmc``, or ``auto``.

The ``backend`` conformance oracle (:mod:`repro.conformance.oracles`)
compares the two backends' behavior sets and wDRF verdicts.

:func:`decide` is a pure function of a feature dict so the routing
policy is unit-testable under forced features; :func:`route` computes
the features from a real query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro import config
from repro.ir.instructions import Load, Store
from repro.ir.program import Program
from repro.memory.cache import peek_exploration_states
from repro.memory.semantics import ModelConfig
from repro.smt.encode import quick_unsupported

__all__ = [
    "RouteDecision",
    "backend_default",
    "decide",
    "features_of",
    "route",
]

#: Predicted state count (log10) above which exploration is deemed the
#: slower backend.  ``test_explosion_spec_features_cross_the_threshold``
#: (tests/test_bmc_backend.py) pins the spec it must route to BMC.  On
#: that spec, measured on a 2-CPU Intel Xeon at commit 127d02b (median
#: of 5, caches off), ``verify_wdrf`` takes 2.33 s forced to
#: exploration (2 passes, 63,744 states, about 27k states/s) and 8 ms
#: routed to BMC (2 SAT passes).  An encode+solve of that size buys
#: only a few hundred explored states, so the break-even sits between
#: 10^2 and 10^3 predicted states; 10^3 keeps small programs on
#: exploration.
_EXPLOSION_LOG10 = 3.0

#: Each promisable (plain, non-release) store roughly doubles the
#: certification work on the relaxed model.
_PROMISE_LOG10 = math.log10(2.0)


def backend_default() -> str:
    """The session backend from ``REPRO_BACKEND`` (default ``explore``)."""
    return config.get("backend")


@dataclass(frozen=True)
class RouteDecision:
    """One routing verdict: the chosen backend and why."""

    backend: str
    reason: str
    features: Dict[str, float] = field(default_factory=dict)


def features_of(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    monitors: Optional[Sequence[object]] = None,
) -> Dict[str, float]:
    """The cost-model features of one query.

    ``est_log10_states`` is the log-multinomial interleaving count of
    the per-thread access counts plus a promise factor;
    ``est_log10_clauses`` is the cubic order-relation term.
    ``cached_states`` is the prior exploration's state count when the
    exploration cache already holds this query (-1.0 otherwise).
    """
    per_thread = [
        sum(isinstance(i, (Load, Store)) for i in t.instrs)
        for t in program.threads
    ]
    events = sum(per_thread)
    instructions = sum(len(t.instrs) for t in program.threads)
    promisable = sum(
        isinstance(i, Store) and not i.release
        for t in program.threads
        for i in t.instrs
    )
    # log10 of the multinomial coefficient events! / prod(n_i!).
    log_states = (
        math.lgamma(events + 1)
        - sum(math.lgamma(n + 1) for n in per_thread)
    ) / math.log(10)
    if cfg.relaxed:
        log_states += promisable * _PROMISE_LOG10
    cached = peek_exploration_states(
        program,
        cfg,
        observe_locs=list(observe_locs) if observe_locs is not None else None,
        monitors=list(monitors) if monitors else None,
    )
    return {
        "instructions": float(instructions),
        "threads": float(len(program.threads)),
        "events": float(events),
        "promisable_stores": float(promisable),
        "est_log10_states": log_states,
        "est_log10_clauses": 3 * math.log10(max(events, 1)) + 1.0,
        "cached_states": float(cached) if cached is not None else -1.0,
    }


def decide(features: Dict[str, float]) -> RouteDecision:
    """The pure routing policy over a feature dict."""
    if features.get("cached_states", -1.0) >= 0:
        return RouteDecision(
            backend="explore",
            reason=(
                f"exploration cached "
                f"({int(features['cached_states'])} states, replay is free)"
            ),
            features=features,
        )
    est = features.get("est_log10_states", 0.0)
    if est >= _EXPLOSION_LOG10:
        return RouteDecision(
            backend="bmc",
            reason=(
                f"~10^{est:.1f} interleavings exceed the 10^"
                f"{_EXPLOSION_LOG10:.0f} exploration break-even"
            ),
            features=features,
        )
    return RouteDecision(
        backend="explore",
        reason=f"~10^{est:.1f} interleavings are cheap to enumerate",
        features=features,
    )


def route(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    monitors: Optional[Sequence[object]] = None,
) -> RouteDecision:
    """Route one query: structural gate first, then the cost model."""
    reason = quick_unsupported(program, cfg)
    if reason is not None:
        return RouteDecision(backend="explore", reason=f"BMC unsupported: {reason}")
    return decide(features_of(program, cfg, observe_locs, monitors))
