"""Comparing behavior sets across hardware models.

The executable content of the paper's theorems is set containment:
Theorem 1 says every behavior of a wDRF kernel program on the Promising
Arm model is also a behavior on the SC model.  These helpers compute the
containment and produce readable diffs when it fails (which is how the
litmus suite demonstrates Examples 1-7).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.ir.program import Program
from repro.memory.cache import cached_explore
from repro.memory.datatypes import Behavior, ExplorationResult
from repro.memory.semantics import ModelConfig, PROMISING_ARM, SC
from repro.parallel import parallel_map

_REGISTER_KEY = re.compile(r"^t(\d+)_(\w+)$")


def parse_register_key(key: str) -> Tuple[int, str]:
    """Split a ``t{tid}_{reg}`` litmus-condition key into ``(tid, reg)``.

    Accepts multi-digit thread ids (``t10_r1`` → ``(10, "r1")``) and
    raises a descriptive :class:`ValueError` on anything malformed
    rather than mis-parsing it.
    """
    m = _REGISTER_KEY.match(key)
    if m is None:
        raise ValueError(
            f"malformed register key {key!r}: expected 't<tid>_<reg>', "
            f"e.g. 't0_r1' or 't10_flag'"
        )
    return int(m.group(1)), m.group(2)


@dataclass(frozen=True)
class BehaviorComparison:
    """The result of comparing a program's behaviors on two models."""

    program_name: str
    sc: ExplorationResult
    rm: ExplorationResult

    @property
    def rm_only(self) -> FrozenSet[Behavior]:
        """Behaviors observable on relaxed hardware but not on SC — the
        relaxed-memory bugs the paper's Section 2 is about."""
        return self.rm.behaviors - self.sc.behaviors

    @property
    def equivalent(self) -> bool:
        """RM ⊆ SC: the guarantee of the wDRF theorem.

        (SC ⊆ RM holds by construction — the SC model's choices are a
        subset of the relaxed model's — so equivalence and containment
        coincide; we still only check the direction the theorem states.)
        """
        return not self.rm_only

    @property
    def complete(self) -> bool:
        return self.sc.complete and self.rm.complete

    def describe(self) -> str:
        lines = [
            f"program {self.program_name!r}:",
            f"  SC behaviors: {len(self.sc.behaviors)}"
            f" ({'complete' if self.sc.complete else 'incomplete'})",
            f"  RM behaviors: {len(self.rm.behaviors)}"
            f" ({'complete' if self.rm.complete else 'incomplete'})",
        ]
        if self.rm_only:
            lines.append("  RM-only behaviors (relaxed-memory effects):")
            for b in sorted(self.rm_only):
                lines.append("    " + b.pretty())
        else:
            lines.append("  no RM-only behaviors: SC proofs transfer")
        return "\n".join(lines)


def _explore_job(args) -> ExplorationResult:
    program, cfg, observe_locs = args
    return cached_explore(program, cfg, observe_locs)


def compare_models(
    program: Program,
    sc_cfg: ModelConfig = SC,
    rm_cfg: ModelConfig = PROMISING_ARM,
    observe_locs: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
) -> BehaviorComparison:
    """Explore *program* under both models and compare outcomes.

    ``jobs`` >= 2 (or negative for all CPUs) runs the two explorations
    in separate processes; the comparison itself is order-fixed, so the
    result is identical to the serial one.
    """
    sc, rm = parallel_map(
        _explore_job,
        [(program, sc_cfg, observe_locs), (program, rm_cfg, observe_locs)],
        jobs=jobs,
    )
    return BehaviorComparison(program_name=program.name, sc=sc, rm=rm)


def admits(result: ExplorationResult, **register_values: int) -> bool:
    """Does any behavior assign these register values?

    Register keys use ``t{tid}_{reg}`` form, e.g. ``admits(res, t0_r0=1,
    t1_r1=1)`` asks whether some behavior has thread 0's ``r0`` = 1 and
    thread 1's ``r1`` = 1 simultaneously — the standard litmus-test
    postcondition query.
    """
    wanted = {}
    for key, value in register_values.items():
        wanted[parse_register_key(key)] = value
    for behavior in result.behaviors:
        assignment = {(t, r): v for t, r, v in behavior.registers}
        if all(assignment.get(k) == v for k, v in wanted.items()):
            return True
    return False
