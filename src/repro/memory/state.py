"""Immutable machine states for the exploration engines.

A :class:`ExecState` captures everything the step relation needs: the
global message timeline, per-thread contexts (program counter, registers,
views, outstanding promises), per-CPU TLBs, the global walker floor, and
the push/pull ownership map.  States are plain nested tuples so they hash
and compare fast; functional updates go through small helpers.

Mapping-like fields (registers, views-per-register, coherence-per-
location, ownership) are stored as sorted tuples of pairs, looked up and
updated with :func:`tget`/:func:`tset`/:func:`tdel` via binary search —
O(log n) probes and O(n) copying updates with no re-sort, while keeping
the trivially correct hashing/equality of plain tuples.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from hashlib import blake2b
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.memory.datatypes import Fault, Message


def interning_enabled() -> bool:
    """Canonical state interning is on unless ``REPRO_INTERN=0``.

    The switch exists for benchmarking (measuring the engine against
    its own unoptimized baseline) — interning never changes results,
    only the cost of duplicate detection.
    """
    return os.environ.get("REPRO_INTERN", "1") != "0"


def _canonical_bytes(obj) -> bytes:
    """A canonical serialization of one state component.

    ``repr`` *is* canonical for states: every component is nested named
    tuples whose leaves are ints, bools, ``None``, and plain strings,
    so its repr is deterministic (no hash-ordered containers, no object
    addresses) and injective (strings are quoted, fields are named) —
    equal values repr equally, distinct values differently.
    """
    return repr(obj).encode("utf-8", "surrogatepass")


def _component_digest(obj) -> bytes:
    """16-byte ``blake2b`` digest of one state component.

    The component is viewed as a plain tuple first: CPython's C-level
    tuple repr is several times faster than a named tuple's
    ``%``-formatting Python ``__repr__``, and the positional view stays
    injective because every fingerprint frame holds one fixed layout
    (``Message`` in the timeline frame, ``ThreadCtx`` in the per-thread
    frames) with no nested named tuples inside.
    """
    return blake2b(
        repr(tuple(obj)).encode("utf-8", "surrogatepass"), digest_size=16
    ).digest()


def _tail_digest(tail: Tuple) -> bytes:
    """16-byte digest of the scalar tail ``state[2:]``.

    The tail is a plain tuple (sliced off the state), so its repr is
    already C-level; digesting it down to a fixed 16-byte frame lets a
    :class:`FingerprintMemo` key it by component identity — the tail's
    components (TLBs, ownership map, fault log, ...) change far more
    rarely than the timeline or thread contexts, so across a run the
    same handful of tails recur by identity almost every step.
    """
    return blake2b(_canonical_bytes(tail), digest_size=16).digest()


def _timeline_digest(
    memory: Tuple[Message, ...], msg_digest=_component_digest
) -> bytes:
    """Digest of a timeline, composed from per-message digests.

    Composed (rather than one digest of the whole tuple's bytes) so a
    memo can reuse the per-message work: a store/promise step appends
    to the timeline — a *new* tuple, so an identity-keyed timeline
    cache misses on every such successor — but the message objects
    inside are shared with the predecessor, so their digests all hit.
    The 16-byte blocks self-frame (distinct lengths, distinct inputs).
    """
    h = blake2b(digest_size=16)
    for msg in memory:
        h.update(msg_digest(msg))
    return h.digest()


class FingerprintMemo:
    """Identity-keyed cache of component digests for one exploration.

    The message timeline is shared *by identity* between a state and
    most of its successors, all but one ``ThreadCtx`` survive every
    step untouched, and every ``Message`` outlives the timeline append
    that copies the tuple around it (the same sharing
    :class:`StateInterner` exploits) — so their digests are worth
    memoizing by ``id()``.  Every cached object is pinned to keep its
    ``id`` from being recycled, which is why a memo must be scoped to
    one exploration, like an interner.  Unlike interner codes, the
    cached values are content-based, so memos in different processes
    always agree.
    """

    __slots__ = ("_by_id", "_pins")

    def __init__(self) -> None:
        # Keyed by id(component) for timelines/contexts/messages, and
        # by a tuple of component ids for state tails — an int key can
        # never equal a tuple key, so the two families cannot collide.
        self._by_id: Dict[object, bytes] = {}
        self._pins: List[object] = []

    def digest(self, obj) -> bytes:
        d = self._by_id.get(id(obj))
        if d is None:
            d = _component_digest(obj)
            self._by_id[id(obj)] = d
            self._pins.append(obj)
        return d

    def timeline_digest(self, memory: Tuple[Message, ...]) -> bytes:
        by_id = self._by_id
        d = by_id.get(id(memory))
        if d is None:
            # C-level bulk lookup of the per-message digests; only the
            # genuinely new messages (almost always the one appended by
            # this step) drop into the Python fill-in loop.
            parts = list(map(by_id.get, map(id, memory)))
            if None in parts:
                for i, md in enumerate(parts):
                    if md is None:
                        parts[i] = self.digest(memory[i])
            d = blake2b(b"".join(parts), digest_size=16).digest()
            by_id[id(memory)] = d
            self._pins.append(memory)
        return d


def state_fingerprint(
    state: "ExecState", memo: Optional[FingerprintMemo] = None
) -> int:
    """A 128-bit content fingerprint of *state* for cross-process dedup.

    :class:`StateInterner` keys are per-process (a timeline's code is
    the order it was first seen in *that* interner), so they can never
    be compared across shard workers.  The fingerprint is a genuine
    ``blake2b`` digest over a framed composition of component digests
    instead — thread count, timeline digest, one digest per
    ``ThreadCtx``, then the digest of the scalar tail — built
    from :func:`_canonical_bytes`, so it is independent of
    ``PYTHONHASHSEED`` and the process boundary: any two processes
    agree on it.  Passing a :class:`FingerprintMemo` only caches the
    per-component digests (timelines and thread contexts are shared by
    identity across successor states); the value is identical with and
    without one.

    A ``hash()``-derived fingerprint is **not** an alternative:
    CPython's tuple hash is a pure function of element hashes, so two
    salted passes over the same tuple are fully correlated — any
    ``hash()`` collision between states (trivial to hit: ``hash(-1) ==
    hash(-2)`` propagates through every enclosing tuple) would collide
    in all 128 bits, and a false filter hit silently drops a subtree.
    A genuine 128-bit digest puts an accidental collision in the same
    trust class as the truncated-SHA256 keys of the persistent
    exploration cache.  The result is never 0, so shared-memory
    filters can use an all-zero slot as the empty marker.
    """
    threads = state.threads
    tail = state[2:]
    if memo is None:
        parts = [
            len(threads).to_bytes(4, "big"),
            _timeline_digest(state.memory),
            *map(_component_digest, threads),
            _tail_digest(tail),
        ]
    else:
        # Warm-path probes are inlined: for a typical successor every
        # component but one is identity-shared with its parent, so the
        # common case is a bare dict probe, not a bound-method call.
        by_id = memo._by_id
        get = by_id.get
        memory = state.memory
        d = get(id(memory))
        parts = [
            len(threads).to_bytes(4, "big"),
            d if d is not None else memo.timeline_digest(memory),
        ]
        for t in threads:
            d = get(id(t))
            parts.append(d if d is not None else memo.digest(t))
        tkey = tuple(map(id, tail))
        d = get(tkey)
        if d is None:
            d = _tail_digest(tail)
            by_id[tkey] = d
            memo._pins.append(tail)
        parts.append(d)
    digest = blake2b(b"".join(parts), digest_size=16).digest()
    return int.from_bytes(digest, "big") or 1

Pairs = Tuple[Tuple, ...]


# The probe ``(key,)`` sorts strictly before ``(key, value)`` for any
# value (a proper prefix of a tuple is always smaller), so bisect_left
# lands exactly on the entry for ``key`` when one exists — no ``key=``
# extraction, and values are never compared.

def tget(pairs: Pairs, key, default=0):
    """Look up *key* in a sorted pair-tuple mapping (binary search)."""
    i = bisect_left(pairs, (key,))
    if i < len(pairs) and pairs[i][0] == key:
        return pairs[i][1]
    return default


def tset(pairs: Pairs, key, value) -> Pairs:
    """Return a new sorted pair-tuple with *key* set to *value*."""
    i = bisect_left(pairs, (key,))
    if i < len(pairs) and pairs[i][0] == key:
        return pairs[:i] + ((key, value),) + pairs[i + 1:]
    return pairs[:i] + ((key, value),) + pairs[i:]


def tdel(pairs: Pairs, key) -> Pairs:
    """Return a new pair-tuple with *key* removed (no-op if absent)."""
    i = bisect_left(pairs, (key,))
    if i < len(pairs) and pairs[i][0] == key:
        return pairs[:i] + pairs[i + 1:]
    return pairs


class ThreadCtx(NamedTuple):
    """One CPU's execution context.

    Views (all scalar timestamps into the global timeline):

    * ``coh`` — per-location coherence: the timestamp of the last write to
      that location this thread has read or written; later reads of the
      location may not go behind it.
    * ``vrn`` — floor for new reads: raised by acquire loads and DMB; a
      read of ``loc`` must not return a write older than the last write to
      ``loc`` at or before ``vrn``.
    * ``vwn`` — floor for new writes: a store's timestamp must exceed it.
    * ``vro``/``vwo`` — the maximum timestamp among past reads/writes, the
      inputs DMB LD / DMB ST promote into the floors.
    * ``vctrl`` — control frontier: join of the dependency views of all
      executed branch conditions; orders later *stores* (and, after ISB,
      later loads) after the reads feeding those branches.

    ``rv`` maps registers to dependency views — the timestamp knowledge
    carried by the value in the register, which is what makes data and
    address dependencies order-preserving.
    """

    pc: int
    halted: bool
    regs: Pairs              # (name, value)
    rv: Pairs                # (name, view ts)
    coh: Pairs               # (loc, ts)
    vrn: int
    vwn: int
    vro: int
    vwo: int
    vctrl: int
    promises: Tuple[int, ...]  # timestamps of own unfulfilled promises
    monitor: Tuple = ()        # (loc, ts) armed by LoadExclusive, or ()
    wbuf: Tuple[Tuple[int, int], ...] = ()  # TSO store buffer: FIFO of
                                            # (loc, val) not yet in memory


class ExecState(NamedTuple):
    """A complete machine configuration."""

    memory: Tuple[Message, ...]
    threads: Tuple[ThreadCtx, ...]
    tlb: Pairs               # ((cpu, vpn), ppage)
    walker_floor: int        # raised by barrier-ordered TLBI (scalar, global)
    ownership: Pairs         # (loc, tid) — push/pull ownership map
    push_ts: Pairs           # (loc, ts of last Push) — barrier-fulfillment
    faults: Tuple[Fault, ...]
    panic: Optional[str]
    pending_release: Pairs = ()   # (loc, old owner): push promised early
    walk_cache: Pairs = ()        # ((cpu, entry_loc), descriptor) — cached
                                  # non-leaf walk entries (vm "walk-cache")
    s2_walker_floor: int = 0      # stage-2 walker floor (vm "stage2")

    def thread(self, idx: int) -> ThreadCtx:
        return self.threads[idx]

    # The three functional updates below are the hottest allocation sites
    # of the whole engine; they construct positionally instead of going
    # through NamedTuple._replace's keyword machinery.

    def with_thread(self, idx: int, ctx: ThreadCtx) -> "ExecState":
        threads = self.threads
        return ExecState(
            self.memory,
            threads[:idx] + (ctx,) + threads[idx + 1:],
            self.tlb,
            self.walker_floor,
            self.ownership,
            self.push_ts,
            self.faults,
            self.panic,
            self.pending_release,
            self.walk_cache,
            self.s2_walker_floor,
        )

    def append_message(self, msg: Message) -> "ExecState":
        return ExecState(
            self.memory + (msg,),
            self.threads,
            self.tlb,
            self.walker_floor,
            self.ownership,
            self.push_ts,
            self.faults,
            self.panic,
            self.pending_release,
            self.walk_cache,
            self.s2_walker_floor,
        )

    def fulfill(self, ts: int) -> "ExecState":
        """Mark the promise at *ts* fulfilled."""
        msg = self.memory[ts - 1]
        memory = (
            self.memory[: ts - 1]
            + (msg._replace(promised=False),)
            + self.memory[ts:]
        )
        return ExecState(
            memory,
            self.threads,
            self.tlb,
            self.walker_floor,
            self.ownership,
            self.push_ts,
            self.faults,
            self.panic,
            self.pending_release,
            self.walk_cache,
            self.s2_walker_floor,
        )


class StateInterner:
    """Hash-consed canonical keys for :class:`ExecState` values.

    The message timeline is by far the largest component of a state and
    the one most often shared *by identity* between a state and its
    successors (only stores and promises append to it; every other step
    copies the reference).  The interner therefore hash-conses timelines
    — each distinct timeline is content-hashed once and replaced by a
    small integer code — and keys a state by that code plus the
    remaining (small) fields, which CPython hashes at C speed:

    * ``_id_codes`` memoizes timeline → code by ``id()``, so a shared
      timeline resolves with a single dict probe and no content hashing.
      Every timeline registered there is pinned in ``_pins`` to keep its
      ``id`` from being recycled by the allocator.
    * ``_content_codes`` maps timeline *content* to its code, so two
      structurally equal timelines always receive the same code — the
      property that makes key equality coincide with state equality.

    Keys are plain tuples: cheap to hash, cheap to compare, and equal
    exactly when the underlying states are equal.  An interner is scoped
    to one exploration — the outer DFS and every nested certification
    search it spawns share the same instance (see
    :class:`repro.memory.semantics.CertMemo`), so a timeline is
    content-hashed once for the whole run; never compare keys from
    different interners.
    """

    __slots__ = ("_content_codes", "_id_codes", "_pins")

    def __init__(self) -> None:
        self._content_codes: Dict[Tuple[Message, ...], int] = {}
        self._id_codes: Dict[int, int] = {}
        self._pins: List[object] = []

    def __len__(self) -> int:
        """Number of distinct timelines interned so far."""
        return len(self._content_codes)

    def timeline_code(self, memory: Tuple[Message, ...]) -> int:
        """The small-integer code of one message timeline (hash-consed)."""
        code = self._id_codes.get(id(memory))
        if code is None:
            contents = self._content_codes
            code = contents.get(memory)
            if code is None:
                code = len(contents)
                contents[memory] = code
            self._id_codes[id(memory)] = code
            self._pins.append(memory)
        return code

    def key(
        self, state: ExecState, threads: Optional[Tuple] = None
    ) -> Tuple:
        """The canonical compact key of *state* (hashable; equal keys
        if and only if equal states, within this interner).

        *threads*, when given, stands in for the state's thread contexts
        — the key of the state with those contexts, built without
        building that state (how the explorer keys a live-field
        projection, see :mod:`repro.memory.liveness`).
        """
        if threads is None:
            return (self.timeline_code(state.memory),) + state[1:]
        return (self.timeline_code(state.memory), threads) + state[2:]


def initial_thread_ctx() -> ThreadCtx:
    return ThreadCtx(
        pc=0,
        halted=False,
        regs=(),
        rv=(),
        coh=(),
        vrn=0,
        vwn=0,
        vro=0,
        vwo=0,
        vctrl=0,
        promises=(),
        monitor=(),
        wbuf=(),
    )


def initial_state(
    n_threads: int, initial_ownership: Tuple[Tuple[int, int], ...] = ()
) -> ExecState:
    return ExecState(
        memory=(),
        threads=tuple(initial_thread_ctx() for _ in range(n_threads)),
        tlb=(),
        walker_floor=0,
        ownership=tuple(sorted(initial_ownership)),
        push_ts=(),
        faults=(),
        panic=None,
        pending_release=(),
        walk_cache=(),
        s2_walker_floor=0,
    )
