"""Pure page-table walks over memory snapshots.

The exploration executor embeds its own walker (it must interleave walker
reads with the relaxed memory system); this module provides the *pure*
walks over memory snapshots.  :func:`walk` translates one virtual page
through a read function.  :func:`walk_mapped` translates a whole probe
set over each of several snapshots, one descent of the table tree per
snapshot; the Transactional-Page-Table checker hands it the pre-state,
the post-state and every visibility snapshot of a page-table write
sequence (Section 3, condition 4: under arbitrary reordering, any walk
must see the pre-state result, the post-state result, or a fault).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.ir.program import MMUConfig


class WalkStatus(enum.Enum):
    OK = "ok"
    FAULT = "fault"


@dataclass(frozen=True)
class WalkResult:
    """Outcome of one translation attempt."""

    status: WalkStatus
    ppage: Optional[int] = None

    @staticmethod
    def ok(ppage: int) -> "WalkResult":
        return WalkResult(WalkStatus.OK, ppage)

    @staticmethod
    def fault() -> "WalkResult":
        return WalkResult(WalkStatus.FAULT)

    @property
    def is_fault(self) -> bool:
        return self.status is WalkStatus.FAULT


def walk(
    read: Callable[[int], int],
    mmu: MMUConfig,
    vpn: int,
    value_mask: int = -1,
) -> WalkResult:
    """Translate *vpn* by walking tables through *read*.

    ``read(loc)`` returns the current value of a page-table entry
    location; entry value 0 faults the walk.

    ``value_mask`` strips descriptor attribute bits before the entry is
    interpreted.  Descriptors written back by hardware access/dirty
    updates (the ``had`` VM feature) carry
    :data:`repro.memory.semantics.PTE_AF`/``PTE_DIRTY`` above the
    address bits; a raw walk over such a snapshot would treat
    ``frame | AF`` as a different (wrong) output frame at the leaf and
    as a garbage table pointer at non-leaf levels — every level of the
    walk must mask, exactly as the operational walker masks each
    candidate it consults.  The default ``-1`` mask is the identity
    (pre-``had`` snapshots are unaffected).
    """
    idx_mask = (1 << mmu.va_bits_per_level) - 1
    table = mmu.root
    for level in range(mmu.levels):
        shift = mmu.va_bits_per_level * (mmu.levels - 1 - level)
        entry = read(table + ((vpn >> shift) & idx_mask)) & value_mask
        if entry == 0:
            return WalkResult.fault()
        if level + 1 == mmu.levels:
            return WalkResult.ok(entry)
        table = entry
    return WalkResult.fault()


def walk_memory(
    memory: Mapping[int, int],
    mmu: MMUConfig,
    vpn: int,
    value_mask: int = -1,
) -> WalkResult:
    """Walk over a plain dict snapshot (missing locations read 0)."""
    return walk(lambda loc: memory.get(loc, 0), mmu, vpn, value_mask)


def walk_mapped(
    memories: Iterable[Mapping[int, int]],
    mmu: MMUConfig,
    vpns: Iterable[int],
    value_mask: int = -1,
) -> List[Dict[int, int]]:
    """Per memory snapshot, ``{vpn: ppage}`` for every vpn of *vpns*
    whose walk over that snapshot does not fault.

    Agrees with :func:`walk_memory` on each vpn (same index arithmetic,
    so VA bits above the ``levels * va_bits_per_level`` span are
    ignored; same ``value_mask`` at every level), but descends each
    snapshot's table tree once for the whole set.  From ``mmu.root``
    it reads only the indices some vpn uses under the current prefix
    and follows only non-zero entries, so a zero entry cuts every vpn
    below it with one read and a sparse vpn set over a wide table reads
    a handful of entries, not whole tables.  The vpns are sorted once
    for all the snapshots.
    """
    bits = mmu.va_bits_per_level
    idx_mask = (1 << bits) - 1
    # Sorted, the vpns below any table entry form one contiguous run,
    # found by bisecting for the first vpn past the entry's VA range.
    pages = sorted(set(vpns))
    last = mmu.levels - 1

    # ``get`` (the snapshot's reader) and ``leaves`` (its result) are
    # bound per snapshot in the loop below.
    def descend(level: int, table: int, lo: int, hi: int) -> None:
        shift = bits * (last - level)
        while lo < hi:
            prefix = pages[lo] >> shift
            end = bisect_left(pages, (prefix + 1) << shift, lo, hi)
            entry = get(table + (prefix & idx_mask), 0) & value_mask
            if entry:
                if level == last:
                    leaves[pages[lo]] = entry
                else:
                    descend(level + 1, entry, lo, end)
            lo = end

    results: List[Dict[int, int]] = []
    for memory in memories:
        get = memory.get
        leaves: Dict[int, int] = {}
        descend(0, mmu.root, 0, len(pages))
        results.append(leaves)
    return results
