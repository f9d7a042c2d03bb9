"""Persistent memoization of exploration results.

The verification layers re-explore the same kernel fragments over and
over: every wDRF condition explores its own instrumentation of the same
program, the SeKVM pipeline verifies 30+ interfaces whose hot fragments
repeat across versions, and benchmark/CI runs repeat the whole litmus
corpus.  :func:`cached_explore` memoizes :func:`repro.memory.exploration.
explore` keyed by a fingerprint of *everything the result depends on*:

* the program (threads, instructions, initial memory, spaces, MMU),
* the :class:`ModelConfig` (all fields, frozensets canonicalized),
* the observation request (``observe_locs`` **in order** — behavior
  tuples are order-sensitive — and ``keep_terminal_states``),
* the reduction mode (``por``), and
* a fingerprint of the memory-model sources themselves, so a cache
  populated by an older engine can never serve a newer one.

Results live in a per-process dict and, across processes, in pickle
files under ``REPRO_EXPLORE_CACHE_DIR`` (default
``~/.cache/vrm-repro/explore``).  Disk traffic is strictly best-effort:
any OS or unpickling error silently degrades to a recomputation.
``REPRO_EXPLORE_CACHE=0`` disables persistence entirely;
``REPRO_EXPLORE_MEMO=0`` additionally bypasses the in-process dict (a
benchmarking knob: it makes repeated explorations pay full price).

Monitored (fused) passes cache too: :func:`cached_explore` with
``monitors=`` stores the :class:`ExplorationResult` *plus* each
monitor's verdict snapshot, keyed by the exploration key extended with
the monitors' fingerprints and a digest of the checker sources
(``src/repro/vrm``), so edited checker logic can never replay a stale
verdict.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import tempfile
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro import config
from repro.ir.program import Program
from repro.memory import mutants
from repro.memory.datatypes import ExplorationMonitor, ExplorationResult
from repro.memory.exploration import explore, por_default_enabled
from repro.memory.semantics import (
    ModelConfig,
    resolve_model,
    resolve_vm_features,
)
from repro.obs import metrics, tracer


#: Process-local lookup accounting, always on (a dict increment per
#: cache lookup is noise next to the exploration it guards).  Keys are
#: hit layers (``memo``/``disk``) and miss layers (``explore``/
#: ``monitored``/``bmc``); see :func:`lookup_stats`.
_lookup_stats: Dict[str, Dict[str, int]] = {"hits": {}, "misses": {}}


def lookup_stats() -> Dict[str, Dict[str, int]]:
    """Per-layer lookup counts recorded by ``_record_lookup``.

    Returns ``{"hits": {layer: n}, "misses": {layer: n}}`` for this
    process since start (or the last :func:`reset_lookup_stats`).  Hit
    layers are ``memo`` and ``disk``; miss layers name the computation
    that had to run (``explore``, ``monitored``, ``bmc``).  The serve
    layer ships workers' deltas back per job, and ``repro cache stats``
    reports the rates.
    """
    return {
        "hits": dict(_lookup_stats["hits"]),
        "misses": dict(_lookup_stats["misses"]),
    }


def reset_lookup_stats() -> None:
    """Zero the per-process lookup accounting (tests, serve workers)."""
    _lookup_stats["hits"].clear()
    _lookup_stats["misses"].clear()


def _record_lookup(hit: bool, layer: str, key: str) -> None:
    """Cold-path observability for one cache lookup outcome.

    Emits a ``cache_hit``/``cache_miss`` trace event and bumps the
    ``cache.<layer>_hits``/``cache.misses`` counters; free when neither
    tracing nor metrics is on.  Always feeds the process-local
    :func:`lookup_stats` tallies.
    """
    bucket = _lookup_stats["hits" if hit else "misses"]
    bucket[layer] = bucket.get(layer, 0) + 1
    if tracer.SINK is not None:
        tracer.SINK.emit(
            tracer.CACHE_HIT if hit else tracer.CACHE_MISS,
            layer=layer, key=key[:16],
        )
    if metrics.ENABLED:
        name = "cache.%s_hits" % layer if hit else "cache.misses"
        metrics.REGISTRY.counter(name).inc()

_CACHE_VERSION = 1

_memory_cache: Dict[str, object] = {}

_code_fingerprint: Optional[str] = None

_monitor_code_fingerprint: Optional[str] = None

_smt_code_fingerprint: Optional[str] = None


class MonitorPassEntry(NamedTuple):
    """Cached outcome of one monitored exploration pass."""

    result: ExplorationResult
    snapshots: Tuple[Dict[str, object], ...]


class BmcEntry(NamedTuple):
    """Cached answer of one BMC query (a behavior set or verdicts)."""

    payload: object


def cache_enabled() -> bool:
    """Persistent caching is on unless ``REPRO_EXPLORE_CACHE=0``."""
    return config.get("explore_cache")


def memo_enabled() -> bool:
    """The in-process memo is on unless ``REPRO_EXPLORE_MEMO=0``."""
    return config.get("explore_memo")


def cache_dir() -> str:
    """Directory holding on-disk exploration results."""
    return config.get("explore_cache_dir") or os.path.join(
        os.path.expanduser("~"), ".cache", "vrm-repro", "explore"
    )


def _source_digest(subdirs: Sequence[str]) -> str:
    h = hashlib.sha256(str(_CACHE_VERSION).encode())
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for subdir in subdirs:
        folder = os.path.join(pkg_root, subdir)
        if not os.path.isdir(folder):
            continue
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                h.update(fname.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def code_fingerprint() -> str:
    """Hash of the memory-model implementation itself.

    Any edit to the semantics, the explorer, or the IR invalidates every
    cached result, so a stale cache can never mask an engine change.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        _code_fingerprint = _source_digest(("memory", "ir", "mmu"))
    return _code_fingerprint


def monitor_code_fingerprint() -> str:
    """Hash of the checker sources (``src/repro/vrm``).

    Monitored passes cache checker *verdicts*, which depend on the
    monitor implementations living outside the memory package; this
    digest keeps edited checker logic from replaying stale verdicts.
    """
    global _monitor_code_fingerprint
    if _monitor_code_fingerprint is None:
        _monitor_code_fingerprint = _source_digest(("vrm",))
    return _monitor_code_fingerprint


def smt_code_fingerprint() -> str:
    """Hash of the SAT/BMC backend sources (``src/repro/smt``).

    BMC answers depend on the encoder and solver, which live outside
    both the memory package and the checker package; this digest keeps
    edited solver logic from replaying stale verdicts.
    """
    global _smt_code_fingerprint
    if _smt_code_fingerprint is None:
        _smt_code_fingerprint = _source_digest(("smt",))
    return _smt_code_fingerprint


def _config_fingerprint(cfg: ModelConfig) -> str:
    parts = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, frozenset):
            value = tuple(sorted(value))
        parts.append(f"{f.name}={value!r}")
    return ";".join(parts)


def _program_fingerprint(program: Program) -> str:
    mem = tuple(sorted(program.initial_memory.items()))
    spaces = tuple(sorted((k, v.value) for k, v in program.spaces.items()))
    return (
        f"threads={program.threads!r};mem={mem!r};"
        f"spaces={spaces!r};mmu={program.mmu!r}"
    )


def program_fingerprint(program: Program) -> str:
    """Canonical text identity of a program (threads, memory, MMU).

    Deliberately excludes the display name, so two differently labelled
    but semantically identical programs share every cache key — the
    property the serving layer's content-addressed dedup relies on.
    """
    return _program_fingerprint(program)


def exploration_key(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]],
    keep_terminal_states: bool,
    por: bool,
    backend: str = "explore",
) -> str:
    """The cache key: a digest of everything the result depends on.

    ``backend`` names the engine that produced the result ("explore"
    or "bmc"); the axis keeps solver-derived answers from ever
    replaying as exploration results or vice versa.
    """
    # Resolve VM features and the architecture selection exactly like
    # the explorer does, so a run under REPRO_VM_FEATURES or REPRO_MODEL
    # can never share a key with (or replay) a default-model result.
    cfg = resolve_model(resolve_vm_features(cfg))
    observed = None if observe_locs is None else tuple(observe_locs)
    text = "\x00".join(
        (
            code_fingerprint(),
            # Seeded semantic mutants change engine behavior at runtime
            # without touching sources; key them so a mutated engine can
            # never replay (or poison) honest results.
            mutants.fingerprint(),
            _program_fingerprint(program),
            _config_fingerprint(cfg),
            repr(observed),
            repr(bool(keep_terminal_states)),
            repr(bool(por)),
            f"backend={backend}",
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def monitored_exploration_key(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]],
    por: bool,
    monitors: Sequence[ExplorationMonitor],
    monitor_cut: bool = True,
) -> str:
    """Cache key of a monitored pass: exploration key × monitor identity.

    ``monitor_cut`` is part of the key because a cut and an exhaustive
    pass report different ``states_explored``/``stopped_early`` even
    though the verdict snapshots coincide.
    """
    text = "\x00".join(
        (
            exploration_key(program, cfg, observe_locs, False, por),
            monitor_code_fingerprint(),
            repr(bool(monitor_cut)),
            *[m.fingerprint() for m in monitors],
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def disk_read(path: str, loads: Callable[[bytes], object], expect: type):
    """Load one disk entry with *loads*, treating anything unreadable as
    a miss.

    An entry that fails to deserialize (or holds an unexpected type) is
    *deleted*, not just skipped: before writes were atomic a killed
    worker could leave a truncated file behind, and without the delete
    that one corpse would poison every future load of its key while
    :func:`disk_write`'s write-once discipline keeps the good entry from
    ever being rewritten over it.  Shared by the engine's pickles and
    the serve layer's JSON result documents.
    """
    try:
        with open(path, "rb") as fh:
            result = loads(fh.read())
    except FileNotFoundError:
        return None
    except (OSError, pickle.PickleError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        _discard(path)
        return None
    if not isinstance(result, expect):
        _discard(path)
        return None
    return result


def _discard(path: str) -> None:
    """Best-effort removal of a corrupt or stale cache file."""
    try:
        os.unlink(path)
    except OSError:
        pass


def disk_write(path: str, obj, dumps: Callable[[object], bytes]) -> None:
    """Atomically publish one disk entry (crash- and multi-process-safe).

    *obj* is serialized with *dumps* first, so an unserializable object
    never touches the disk.  The bytes are written to a private temp
    file in the entry's directory and ``os.replace``\\ d into place, so
    a concurrent reader observes either the old complete entry or the
    new complete entry — never a partial write — and a killed process
    leaves at worst an orphaned ``<entry name>.<random>.tmp`` file, never
    a truncated entry.  Any failure degrades to a no-op with the temp
    file cleaned up.
    """
    folder = os.path.dirname(path)
    tmp = None
    try:
        data = dumps(obj)
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=folder, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        tmp = None
    except (OSError, pickle.PickleError, TypeError, AttributeError,
            ValueError):
        pass
    finally:
        if tmp is not None:
            _discard(tmp)


def _pickle_dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _disk_load(key: str, expect: type = ExplorationResult):
    """One engine pickle from :func:`cache_dir` (see :func:`disk_read`)."""
    return disk_read(
        os.path.join(cache_dir(), key + ".pkl"), pickle.loads, expect
    )


def _disk_store(key: str, result) -> None:
    """Publish one engine pickle (see :func:`disk_write`)."""
    disk_write(os.path.join(cache_dir(), key + ".pkl"), result, _pickle_dumps)


#: The persistent layers: label, subdirectory of :func:`cache_dir`, and
#: the suffix of the ``<sha256 hex>`` entry names the layer writes.
_DISK_LAYERS = (("engine", "", ".pkl"), ("serve", "serve", ".json"))


def _cache_files(folder: str, suffix: str) -> Iterator[Tuple[str, bool]]:
    """``(path, is_tmp)`` for every file in *folder* this cache wrote:
    ``<sha256 hex><suffix>`` entries and the temp files
    :func:`disk_write` orphans when killed mid-write.  Foreign files
    sharing the directory are never listed; an unreadable directory
    lists nothing.
    """
    owned = re.compile(
        r"[0-9a-f]{64}" + re.escape(suffix) + r"(\.[a-z0-9_]+\.tmp)?"
    )
    try:
        names = os.listdir(folder)
    except OSError:
        return
    for name in names:
        match = owned.fullmatch(name)
        if match:
            yield os.path.join(folder, name), match.group(1) is not None


def disk_stats() -> Dict[str, object]:
    """Entry counts and bytes on disk for every persistent layer.

    Scans :func:`cache_dir` (engine results: exploration, monitored,
    BMC pickles) and its ``serve/`` subdirectory (rendered job results
    the serving layer persists) without loading anything.
    """
    folder = cache_dir()
    stats: Dict[str, object] = {"dir": folder}
    for label, sub, suffix in _DISK_LAYERS:
        entries = total = stale_tmp = 0
        for path, is_tmp in _cache_files(os.path.join(folder, sub), suffix):
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if is_tmp:
                stale_tmp += 1
            else:
                entries += 1
                total += size
        stats[label] = {
            "entries": entries, "bytes": total, "stale_tmp": stale_tmp,
        }
    return stats


def clear_disk_cache() -> int:
    """Delete every persistent cache entry; returns the files removed.

    Removes engine pickles, serve-layer result JSONs, and orphaned
    temp files — only names the cache itself writes, so foreign files
    in a shared directory survive — leaving the directories in place.
    Safe to run concurrently with readers/writers: both sides treat a
    vanished file as a plain miss.
    """
    folder = cache_dir()
    removed = 0
    for _, sub, suffix in _DISK_LAYERS:
        for path, _ in _cache_files(os.path.join(folder, sub), suffix):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
    return removed


def clear_memory_cache() -> None:
    """Drop the in-process memo (used by tests and benchmarks)."""
    _memory_cache.clear()


def _lookup(key: str, expect: type) -> Tuple[Optional[object], str]:
    """``(entry, layer)``: the *expect* entry under *key* from the memo
    (layer ``memo``), else from disk (``disk``), else ``(None, "")``.
    Records no lookup and promotes nothing."""
    if memo_enabled():
        entry = _memory_cache.get(key)
        if isinstance(entry, expect):
            return entry, "memo"
    if cache_enabled():
        entry = _disk_load(key, expect)
        if entry is not None:
            return entry, "disk"
    return None, ""


def _store(key: str, entry: object) -> None:
    """Publish *entry* under *key* to the enabled layers."""
    if memo_enabled():
        _memory_cache[key] = entry
    if cache_enabled():
        _disk_store(key, entry)


def _cached(
    key: str,
    expect: type,
    miss_layer: str,
    compute: Callable[[], object],
    valid: Callable[[object], bool] = lambda entry: True,
) -> Tuple[object, bool]:
    """``(entry, hit)``: memo, then disk, then *compute* and store.

    A disk hit is promoted into the memo; a cached entry failing
    *valid* is recomputed.  The lookup is recorded under the hit layer,
    or under *miss_layer* when *compute* ran.
    """
    entry, layer = _lookup(key, expect)
    if entry is not None and valid(entry):
        _record_lookup(True, layer, key)
        if layer == "disk" and memo_enabled():
            _memory_cache[key] = entry
        return entry, True
    _record_lookup(False, miss_layer, key)
    entry = compute()
    _store(key, entry)
    return entry, False


def cached_explore(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]] = None,
    keep_terminal_states: bool = False,
    por: Optional[bool] = None,
    cache: bool = True,
    monitors: Optional[Sequence[ExplorationMonitor]] = None,
    monitor_cut: bool = True,
) -> ExplorationResult:
    """:func:`~repro.memory.exploration.explore`, memoized.

    Identical inputs (per :func:`exploration_key`) return the previously
    computed :class:`ExplorationResult`; pass ``cache=False`` (or set
    ``REPRO_EXPLORE_CACHE=0`` for the disk layer) to force recomputation.

    With ``monitors=``, the pass streams terminal states through the
    given :class:`ExplorationMonitor` objects; on a cache hit their
    verdict snapshots are restored instead of re-exploring, so callers
    may unconditionally ``finalize()`` their monitors afterwards.
    ``monitor_cut=False`` forwards the legacy exhaustive mode (see
    :func:`~repro.memory.exploration.explore`).
    """
    if por is None:
        por = por_default_enabled()
    if monitors:
        return _cached_monitor_explore(
            program, cfg, observe_locs, por, list(monitors), cache,
            monitor_cut,
        )
    if not cache:
        return explore(program, cfg, observe_locs, keep_terminal_states, por)
    key = exploration_key(program, cfg, observe_locs, keep_terminal_states, por)
    result, _ = _cached(
        key, ExplorationResult, "explore",
        lambda: explore(program, cfg, observe_locs, keep_terminal_states, por),
    )
    return result


def _cached_monitor_explore(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]],
    por: bool,
    monitors: List[ExplorationMonitor],
    cache: bool,
    monitor_cut: bool,
) -> ExplorationResult:
    if not cache:
        return explore(
            program, cfg, observe_locs, False, por, monitors, monitor_cut
        )
    key = monitored_exploration_key(
        program, cfg, observe_locs, por, monitors, monitor_cut
    )

    def compute() -> MonitorPassEntry:
        result = explore(
            program, cfg, observe_locs, False, por, monitors, monitor_cut
        )
        return MonitorPassEntry(
            result=result, snapshots=tuple(m.snapshot() for m in monitors)
        )

    entry, hit = _cached(
        key, MonitorPassEntry, "monitored", compute,
        valid=lambda e: len(e.snapshots) == len(monitors),
    )
    if hit:
        for monitor, snap in zip(monitors, entry.snapshots):
            monitor.restore(snap)
    return entry.result


def bmc_query_key(
    program: Program,
    cfg: ModelConfig,
    observe_locs: Optional[Sequence[int]],
    query: str,
) -> str:
    """Cache key of one BMC query (behavior enumeration or verdicts).

    Builds on :func:`exploration_key` with ``backend="bmc"`` so solver
    answers and exploration results can never shadow each other, and
    folds in the solver/encoder source digest plus the checker-source
    digest (verdict shapes follow ``vrm`` code) and the query
    descriptor (depth and induction knobs included by the caller).
    """
    text = "\x00".join(
        (
            exploration_key(
                program, cfg, observe_locs, False, False, backend="bmc"
            ),
            smt_code_fingerprint(),
            monitor_code_fingerprint(),
            query,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def cached_bmc_query(key: str, compute):
    """Memoize one BMC answer under *key* through both cache layers.

    *compute* is a zero-argument callable producing a picklable
    payload; the same memo/disk discipline as :func:`cached_explore`
    applies (``REPRO_EXPLORE_MEMO=0`` / ``REPRO_EXPLORE_CACHE=0``
    bypass the respective layer).
    """
    entry, _ = _cached(key, BmcEntry, "bmc", lambda: BmcEntry(compute()))
    return entry.payload
