"""Replayable counterexample corpus for the conformance harness.

Every disagreement the fuzzer finds is persisted as one JSON file
containing everything needed to reproduce it from scratch: the full
genome (and its shrunk form), the oracle that fired, the root seed and
program index it was generated from, and an *engine fingerprint* — the
source digests the exploration cache keys on plus the active mutant
set — so a replay can tell whether it is running against the same
engine that produced the finding.

The format is deliberately flat JSON (no pickles): corpus entries are
meant to be read by humans in code review, diffed in git, and uploaded
as CI artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.conformance.genome import Genome
from repro.conformance.oracles import Disagreement, check_genome
from repro.memory import mutants
from repro.memory.cache import code_fingerprint, monitor_code_fingerprint

__all__ = [
    "engine_fingerprint",
    "iter_corpus",
    "load_entry",
    "replay_entry",
    "save_finding",
]

_FORMAT_VERSION = 1


def engine_fingerprint() -> Dict[str, str]:
    """Identity of the engine that produced (or is replaying) a finding."""
    return {
        "code": code_fingerprint(),
        "monitors": monitor_code_fingerprint(),
        "mutants": mutants.fingerprint(),
    }


def save_finding(
    corpus_dir: str,
    seed: int,
    index: int,
    genome: Genome,
    disagreement: Disagreement,
    shrunk: Optional[Genome] = None,
) -> str:
    """Write one counterexample entry; returns the file path."""
    os.makedirs(corpus_dir, exist_ok=True)
    entry = {
        "version": _FORMAT_VERSION,
        "seed": seed,
        "index": index,
        "oracle": disagreement.oracle,
        "detail": disagreement.detail,
        "genome": genome.to_json(),
        "shrunk_genome": None if shrunk is None else shrunk.to_json(),
        "engine": engine_fingerprint(),
    }
    path = os.path.join(
        corpus_dir,
        f"counterexample-{seed}-{index}-{disagreement.oracle}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_entry(path: str) -> Dict[str, object]:
    """Load one saved counterexample entry from *path*."""
    with open(path, "r", encoding="utf-8") as fh:
        entry = json.load(fh)
    if entry.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported corpus format version "
            f"{entry.get('version')!r}"
        )
    return entry


def iter_corpus(corpus_dir: str) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Yield ``(path, entry)`` for every counterexample in a directory."""
    if not os.path.isdir(corpus_dir):
        return
    for fname in sorted(os.listdir(corpus_dir)):
        if fname.startswith("counterexample-") and fname.endswith(".json"):
            path = os.path.join(corpus_dir, fname)
            yield path, load_entry(path)


def replay_entry(
    entry: Dict[str, object], use_shrunk: bool = True
) -> List[Disagreement]:
    """Re-run the entry's oracle on its (shrunk, by default) genome.

    An empty list means the disagreement no longer reproduces — either
    the bug was fixed or the engine changed; compare the entry's
    ``engine`` fingerprint against :func:`engine_fingerprint` to tell
    which story the replay is telling.  An ``inconclusive`` entry means
    a search budget cut the replay before it compared anything.
    """
    genome_json = None
    if use_shrunk:
        genome_json = entry.get("shrunk_genome")
    if genome_json is None:
        genome_json = entry["genome"]
    genome = Genome.from_json(genome_json)
    return check_genome(genome, oracles=(str(entry["oracle"]),))
