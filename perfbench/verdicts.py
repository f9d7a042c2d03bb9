"""Reference answers every timed verdict is checked against.

Nothing here is produced by the code under test during the run:

* litmus behavior-set digests and observed flags come from the pinned
  corpora ``tests/corpus/litmus_digests.json`` and
  ``tests/corpus/portability_verdicts.json`` (read, never regenerated);
* the digest and the postcondition test are re-implemented here, so a
  change to the program's own digest or litmus runner cannot move the
  reference;
* where no corpus entry exists (``promise_heavy``) the SAT backend's
  behavior set, an independent engine, is the reference.

A verdict that disagrees, is incomplete, or raised counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

#: Corpus name of each portfolio model's digest column.
DIGEST_COLUMN = {"sc": "sc", "tso": "tso", "arm": "rm"}


def behavior_digest(result: Any) -> str:
    """SHA-256 over the completeness flag and the sorted behaviors."""
    h = hashlib.sha256()
    h.update(b"complete=1" if result.complete else b"complete=0")
    for line in sorted(b.pretty() for b in result.behaviors):
        h.update(b"\x00")
        h.update(line.encode())
    return h.hexdigest()


def admits(test: Any, result: Any) -> bool:
    """Does some behavior satisfy *test*'s register and memory condition?"""
    from repro.memory.behaviors import parse_register_key

    regs = {parse_register_key(k): v for k, v in test.condition.items()}
    mem = dict(test.memory_condition)
    for behavior in result.behaviors:
        seen = {(t, r): v for t, r, v in behavior.registers}
        if any(seen.get(k) != v for k, v in regs.items()):
            continue
        final = dict(behavior.memory)
        if all(final.get(loc) == val for loc, val in mem.items()):
            return True
    return False


class LitmusReference:
    """The pinned per-model digests and observed flags of the catalog."""

    def __init__(self, digests: Dict[str, Dict[str, str]],
                 observed: Dict[str, Dict[str, bool]]) -> None:
        self.digests = digests
        self.observed = observed

    @classmethod
    def load(cls, root: str) -> "LitmusReference":
        corpus = os.path.join(root, "tests", "corpus")
        with open(os.path.join(corpus, "litmus_digests.json"),
                  encoding="utf-8") as fh:
            digests = json.load(fh)
        with open(os.path.join(corpus, "portability_verdicts.json"),
                  encoding="utf-8") as fh:
            rows = json.load(fh)["litmus"]
        return cls(digests, {row["name"]: row["observed"] for row in rows})

    def problems(self, test: Any, model: str, result: Any,
                 sat: Optional[Any] = None) -> List[str]:
        """Why this (test, model) verdict is wrong; [] when it is right.

        *test* is None for programs outside the catalog, which are
        checked against the SAT answer *sat* alone.
        """
        out: List[str] = []
        if not result.complete:
            out.append("incomplete exploration")
        if test is not None:
            want = self.digests.get(test.name, {}).get(DIGEST_COLUMN[model])
            if want is None:
                out.append("no pinned digest")
            elif behavior_digest(result) != want:
                out.append("behavior digest differs from the pinned corpus")
            flag = self.observed.get(test.name, {}).get(model)
            if flag is None:
                out.append("no pinned observed flag")
            elif admits(test, result) != flag:
                out.append("observed flag differs from the pinned corpus")
        if sat is not None and sat.behaviors != result.behaviors:
            out.append("behavior set differs from the SAT backend's")
        if test is None and sat is None:
            out.append("no reference answer")
        return out


def serve_problems(kind: str, served: Any, direct: Dict[str, Any]) -> List[str]:
    """Compare one served result document with a direct ``execute_job``."""
    if not isinstance(served, dict):
        return ["no result document"]
    fields = {
        "explore": ("behavior_digest", "n_behaviors", "complete"),
        "wdrf": ("all_hold", "all_verified", "conditions"),
        "litmus": ("passed", "observed_sc", "observed_rm", "sc_digest",
                   "rm_digest"),
    }[kind]
    return [
        f"{name} differs from the direct run"
        for name in fields if served.get(name) != direct.get(name)
    ]
