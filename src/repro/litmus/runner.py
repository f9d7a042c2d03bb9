"""Run litmus tests against the SC, TSO, and Promising Arm models.

The runner is the executable form of the claim that our Promising Arm
implementation matches the architecture: for every test, the
postcondition must be observable exactly on the models the catalog says
it is.  A mismatch is either a bug in the executor or a mis-specified
test, and the test suite treats both as failures.

SC and Promising Arm always run.  The TSO column is opt-in
(``model="tso"`` or ``REPRO_MODEL=tso``): when it runs, the verdict is
checked against :attr:`LitmusTest.expected_tso` where the catalog pins
one, and against the SC ⊆ TSO ⊆ Arm containment sandwich otherwise.

Model configurations are shared across tests (one SC config, one
relaxed config per promise bound) so exploration caching keys stay
stable, and :func:`run_corpus` fans tests out over a process pool with
``jobs=N`` — results are merged in catalog order, so parallel runs are
bit-identical to serial ones.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro import config
from repro.litmus.catalog import LitmusTest, full_corpus
from repro.memory.behaviors import parse_register_key
from repro.memory.cache import cached_explore
from repro.memory.datatypes import ExplorationResult
from repro.memory.semantics import ModelConfig, env_model
from repro.parallel import parallel_map

#: The one SC configuration every litmus test runs under.
SC_CFG = ModelConfig(relaxed=False)

#: The one TSO configuration (store buffers on, promises off).
TSO_CFG = ModelConfig(relaxed=False, tso=True)


@functools.lru_cache(maxsize=None)
def rm_config(max_promises: int) -> ModelConfig:
    """The shared relaxed configuration for a given promise bound."""
    return ModelConfig(relaxed=True, max_promises_per_thread=max_promises)


def litmus_configs(test: LitmusTest) -> Tuple[ModelConfig, ModelConfig]:
    """The ``(sc, rm)`` configurations *test* runs under.

    Tests carrying ``vm_features`` get them applied to both models, so a
    feature-gated behavior family is explored exactly where the catalog
    says it applies; every other test keeps the shared seed configs
    (identical cache keys, bit-identical digests).
    """
    sc_cfg = SC_CFG
    rm_cfg = rm_config(test.max_promises)
    if test.vm_features:
        feats = frozenset(test.vm_features)
        sc_cfg = dataclasses.replace(sc_cfg, vm_features=feats)
        rm_cfg = dataclasses.replace(rm_cfg, vm_features=feats)
    return sc_cfg, rm_cfg


def tso_config(test: LitmusTest) -> ModelConfig:
    """The TSO configuration *test* runs under (vm features applied)."""
    cfg = TSO_CFG
    if test.vm_features:
        cfg = dataclasses.replace(cfg, vm_features=frozenset(test.vm_features))
    return cfg


@dataclass(frozen=True)
class LitmusOutcome:
    """The observed result of one litmus test on both models."""

    test: LitmusTest
    sc: ExplorationResult
    rm: ExplorationResult
    observed_sc: bool
    observed_rm: bool
    #: Filled only when the TSO column ran (``model="tso"``).
    tso: Optional[ExplorationResult] = None
    observed_tso: Optional[bool] = None
    #: The architecture the relaxed column actually ran: ``REPRO_MODEL``
    #: re-targets relaxed configurations inside the explorer, so under
    #: ``REPRO_MODEL=tso`` the "RM" exploration IS a TSO exploration and
    #: its verdict must be checked against the TSO expectation.
    rm_model: str = "arm"

    def _rm_expectation(self) -> Optional[bool]:
        """What the relaxed column should observe, per its model."""
        if self.rm_model == "sc":
            return self.test.allowed_sc
        if self.rm_model == "tso":
            return self.test.expected_tso
        return self.test.allowed_rm

    @property
    def rm_passed(self) -> bool:
        expected = self._rm_expectation()
        if expected is not None:
            return self.observed_rm == expected
        # No pinned verdict for this model: fall back to the
        # SC ⊆ model ⊆ Arm containment sandwich.
        return (not self.observed_sc or self.observed_rm) and (
            not self.observed_rm or self.test.allowed_rm
        )

    @property
    def tso_passed(self) -> bool:
        """The TSO column's verdict check (vacuously true when not run).

        With an expectation (explicit or sandwich-derived) the observed
        verdict must match it; without one, the observation must at
        least respect SC ⊆ TSO ⊆ Arm.
        """
        if self.observed_tso is None:
            return True
        if self.tso is not None and not self.tso.complete:
            return False
        expected = self.test.expected_tso
        if expected is not None:
            return self.observed_tso == expected
        return (not self.observed_sc or self.observed_tso) and (
            not self.observed_tso or self.observed_rm
        )

    @property
    def passed(self) -> bool:
        return (
            self.observed_sc == self.test.allowed_sc
            and self.rm_passed
            and self.sc.complete
            and self.rm.complete
            and self.tso_passed
        )

    def describe(self) -> str:
        def fmt(observed: bool, ok: bool) -> str:
            mark = "ok" if ok else "MISMATCH"
            return f"{'observable' if observed else 'forbidden':>10} ({mark})"

        rm_col = "RM" if self.rm_model == "arm" else f"RM={self.rm_model}"
        line = (
            f"{self.test.name:<40} SC: "
            f"{fmt(self.observed_sc, self.observed_sc == self.test.allowed_sc)}"
            f"  {rm_col}: {fmt(self.observed_rm, self.rm_passed)}"
        )
        if self.observed_tso is not None:
            line += f"  TSO: {fmt(self.observed_tso, self.tso_passed)}"
        return line


def _admits(test: LitmusTest, result: ExplorationResult) -> bool:
    """Does some behavior satisfy both register and memory conditions?"""
    wanted_regs = {}
    for key, value in test.condition.items():
        wanted_regs[parse_register_key(key)] = value
    wanted_mem = dict(test.memory_condition)
    for behavior in result.behaviors:
        assignment = {(t, r): v for t, r, v in behavior.registers}
        if not all(assignment.get(k) == v for k, v in wanted_regs.items()):
            continue
        memory = dict(behavior.memory)
        if all(memory.get(loc) == val for loc, val in wanted_mem.items()):
            return True
    return False


def _explore_one(
    test: LitmusTest,
    cfg: ModelConfig,
    observe: Sequence[int],
    cache: bool,
    backend: str,
) -> ExplorationResult:
    """One model's behavior set via the selected backend (the
    ``backend`` conformance oracle checks the two agree)."""
    if backend == "bmc":
        from repro.smt.backend import bmc_explore, bmc_supported
        from repro.smt.encode import Unsupported

        if bmc_supported(test.program, cfg) is None:
            try:
                return bmc_explore(test.program, cfg, observe, cache=cache)
            except Unsupported:
                pass  # domain blow-up found during encoding: explore instead
    return cached_explore(
        test.program, cfg, observe_locs=observe, cache=cache
    )


def run_litmus(
    test: LitmusTest,
    cache: bool = True,
    backend: Optional[str] = None,
    model: Optional[str] = None,
) -> LitmusOutcome:
    """Execute one test under both models and check its postcondition.

    ``backend`` selects the verification backend (``explore`` or
    ``bmc``; None reads ``REPRO_BACKEND``).  Tests outside the
    SAT-encodable fragment always run through exploration.

    ``model`` (None reads ``REPRO_MODEL``) keeps the SC and Arm columns
    but adds a third, TSO, exploration when set to ``"tso"`` — the
    catalog's SC/Arm expectations stay meaningful under every selection,
    so the litmus suite never silently weakens.
    """
    if backend is None:
        backend = config.get("backend")
    if model is None:
        model = env_model()
    sc_cfg, rm_cfg = litmus_configs(test)
    observe = sorted(loc for loc, _ in test.memory_condition)
    sc = _explore_one(test, sc_cfg, observe, cache, backend)
    rm = _explore_one(test, rm_cfg, observe, cache, backend)
    tso = (
        _explore_one(test, tso_config(test), observe, cache, backend)
        if model == "tso"
        else None
    )
    return LitmusOutcome(
        test=test,
        sc=sc,
        rm=rm,
        observed_sc=_admits(test, sc),
        observed_rm=_admits(test, rm),
        tso=tso,
        observed_tso=None if tso is None else _admits(test, tso),
        # The explorer re-targets relaxed configs per REPRO_MODEL (the
        # ``model`` argument only adds the TSO column), so record what
        # the environment made the relaxed column mean.
        rm_model=env_model(),
    )


def run_corpus(
    tests: Optional[Iterable[LitmusTest]] = None,
    jobs: Optional[int] = None,
    cache: bool = True,
    model: Optional[str] = None,
) -> List[LitmusOutcome]:
    """Run a collection of litmus tests (default: the full corpus).

    ``jobs`` fans tests out over a process pool (``None``/``0`` = serial,
    negative = all CPUs); outcomes always come back in catalog order.
    """
    if tests is None:
        tests = full_corpus()
    worker = functools.partial(run_litmus, cache=cache, model=model)
    return parallel_map(worker, tests, jobs=jobs)


def corpus_report(outcomes: Sequence[LitmusOutcome]) -> str:
    lines = [o.describe() for o in outcomes]
    failed = sum(1 for o in outcomes if not o.passed)
    lines.append(f"{len(outcomes) - failed}/{len(outcomes)} litmus tests matched")
    return "\n".join(lines)
