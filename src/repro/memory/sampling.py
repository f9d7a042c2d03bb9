"""Randomized (sampled) exploration for programs too large to exhaust.

The checkers require exhaustive exploration — only an exhaustive pass
counts as verified — but for *bug hunting* on larger kernel fragments a
random walk over the same step relation finds relaxed-memory violations
quickly without visiting the whole state space.  Every behavior sampled
is, by construction, a real behavior of the model (sampling is sound for
refutation, never for verification).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Set

from repro.ir.program import Program
from repro.memory.datatypes import Behavior, ExplorationResult
from repro.memory.exploration import (
    _is_terminal,
    _is_valid_terminal,
    behavior_of,
)
from repro.memory.semantics import (
    CertMemo,
    ModelConfig,
    ProgramCache,
    execute_instruction,
    promise_steps,
    resolve_model,
    resolve_vm_features,
    tso_flush_steps,
)
from repro.memory.state import initial_state


def sample_behaviors(
    program: Program,
    cfg: ModelConfig,
    runs: int = 100,
    seed: int = 0,
    observe_locs: Optional[Sequence[int]] = None,
    max_steps_per_run: int = 10_000,
    rng: Optional[random.Random] = None,
) -> ExplorationResult:
    """Random-walk *runs* executions; returns the sampled behavior set.

    The result is always marked incomplete — sampled exploration can
    refute (exhibit a violating behavior) but never verify.  All
    randomness comes from the explicit *rng* (default: a fresh
    ``random.Random(seed)``), never from the global generator, so a
    sampling session replayed from a persisted seed is bit-identical.
    Like :func:`~repro.memory.exploration.explore`, it applies the
    ``REPRO_VM_FEATURES`` and ``REPRO_MODEL`` selections to *cfg*.
    """
    cfg = resolve_model(resolve_vm_features(cfg))
    cache = ProgramCache(program)
    if observe_locs is None:
        observe_locs = sorted(cache.initial_memory)
    rng = rng if rng is not None else random.Random(seed)
    behaviors: Set[Behavior] = set()
    states_seen = 0
    cut = 0
    # Walks revisit the same certification questions constantly; share
    # one memo (and interner) across all runs of this sampling session.
    memo = CertMemo()

    for _ in range(runs):
        state = initial_state(len(program.threads), cfg.initial_ownership)
        for _step in range(max_steps_per_run):
            states_seen += 1
            if _is_terminal(state):
                break
            successors = []
            for tidx in range(len(program.threads)):
                # TSO store buffers drain by their own internal step; a
                # walk only ends once every buffer is empty.
                if cfg.tso and state.threads[tidx].wbuf:
                    successors.extend(
                        tso_flush_steps(cache, state, tidx, cfg)
                    )
                successors.extend(
                    execute_instruction(cache, state, tidx, cfg)
                )
                # Promises are rare events: sample them occasionally so
                # walks stay cheap but relaxed behaviors remain reachable.
                if cfg.relaxed and rng.random() < 0.3:
                    successors.extend(
                        promise_steps(cache, state, tidx, cfg, memo)
                    )
            successors = [
                s for s in successors if len(s.memory) <= cfg.max_memory
            ]
            if not successors:
                cut += 1
                break
            state = rng.choice(successors)
        if _is_terminal(state) and _is_valid_terminal(state):
            behaviors.add(behavior_of(cache, state, observe_locs))

    return ExplorationResult(
        behaviors=frozenset(behaviors),
        complete=False,
        states_explored=states_seen,
        cut_paths=cut,
    )
