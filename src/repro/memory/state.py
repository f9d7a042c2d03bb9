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

from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import config
from repro.memory.datatypes import Fault, Message


def interning_enabled() -> bool:
    """Canonical state interning is on unless ``REPRO_INTERN=0``.

    The switch exists for benchmarking (measuring the engine against
    its own unoptimized baseline) — interning never changes results,
    only the cost of duplicate detection.
    """
    return config.get("intern")


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

    def key(self, state: ExecState) -> Tuple:
        """The canonical compact key of *state* (hashable; equal keys
        if and only if equal states, within this interner): the outer
        DFS's visited-set key."""
        return (self.timeline_code(state.memory),) + state[1:]


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
