"""Stage 2 page-table management: ``set_s2pt`` / ``clear_s2pt`` (§5.4-5.5).

Each principal below KCore (KServ and every VM) runs behind a stage 2
page table that KCore alone can write.  The two primitives follow the
paper exactly:

* ``set_s2pt`` walks from the root, allocating intermediate tables from
  a private zeroed pool, and sets the leaf only if it is empty — a
  transactional update (any partially visible state faults).
* ``clear_s2pt`` clears an existing leaf (one write) and then performs
  ``barrier; tlbi`` — the Sequential-TLB-Invalidation discipline.  It
  never reclaims intermediate tables.

Every operation appends an :class:`S2PTOperation` record (its write
slice, barrier/TLBI events) so the wDRF audits in :mod:`repro.vrm` can
check the discipline after the fact, and the performance simulator can
count walks and invalidations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import HypercallError
from repro.mmu.pagetable import MultiLevelPageTable, PTWrite
from repro.sekvm.locks import TicketLock


@dataclass(frozen=True)
class S2PTOperation:
    """Audit record of one stage-2 page-table operation."""

    kind: str                    # "map" | "unmap"
    vpn: int
    writes: Tuple[PTWrite, ...]
    barrier_before_tlbi: bool
    tlbi: bool


class Stage2PageTable:
    """One principal's stage 2 table, with its lock and audit trail.

    ``levels`` is 3 or 4 — the paper verifies both (Section 5.6), with
    3-level tables reducing intermediate-entry TLB pressure on CPUs with
    small TLBs.
    """

    def __init__(
        self,
        owner_name: str,
        levels: int = 4,
        va_bits_per_level: int = 9,
        pool_pages: int = 4096,
        buggy_skip_tlbi: bool = False,
        buggy_skip_barrier: bool = False,
    ):
        if levels not in (3, 4):
            raise HypercallError("SeKVM supports 3- or 4-level stage 2 tables")
        self.owner_name = owner_name
        self.levels = levels
        self.pagetable = MultiLevelPageTable(
            levels=levels,
            va_bits_per_level=va_bits_per_level,
            pool_pages=pool_pages,
            name=f"s2pt-{owner_name}",
        )
        self.lock = TicketLock(name=f"s2pt-lock-{owner_name}")
        self.operations: List[S2PTOperation] = []
        self.tlb_invalidations = 0
        # Seeded-bug knobs for the ablation benchmarks (A2): a variant
        # that skips the TLBI or the barrier must be caught by the
        # Sequential-TLB-Invalidation audit.
        self._buggy_skip_tlbi = buggy_skip_tlbi
        self._buggy_skip_barrier = buggy_skip_barrier

    # ------------------------------------------------------------------
    def set_s2pt(self, cpu: int, vpn: int, pfn: int) -> S2PTOperation:
        """Establish ``vpn -> pfn``; the whole walk-allocate-set runs
        under the table lock and only ever writes empty entries."""
        self.lock.acquire(cpu)
        try:
            mark = len(self.pagetable.write_log)
            if self.pagetable.is_mapped(vpn):
                raise HypercallError(
                    f"set_s2pt({self.owner_name}): vpn {vpn:#x} already mapped"
                )
            self.pagetable.map(vpn, pfn, overwrite=False)
            writes = tuple(self.pagetable.write_log[mark:])
            op = S2PTOperation(
                kind="map",
                vpn=vpn,
                writes=writes,
                barrier_before_tlbi=True,
                tlbi=False,  # mapping an empty entry needs no invalidation
            )
            self.operations.append(op)
            return op
        finally:
            self.lock.release(cpu)

    def set_s2pt_block(
        self, cpu: int, vpn: int, pfn_base: int, level: Optional[int] = None
    ) -> S2PTOperation:
        """Establish a huge-page (block) mapping for the VM.

        KCore uses block mappings for VM stage 2 tables to reduce TLB
        pressure (Section 6); the update discipline is identical to
        ``set_s2pt`` — fresh tables plus one previously-empty entry — so
        the transactional proof carries over.
        """
        if level is None:
            level = self.levels - 2
        self.lock.acquire(cpu)
        try:
            mark = len(self.pagetable.write_log)
            self.pagetable.map_block(vpn, pfn_base, level)
            op = S2PTOperation(
                kind="map",
                vpn=vpn,
                writes=tuple(self.pagetable.write_log[mark:]),
                barrier_before_tlbi=True,
                tlbi=False,
            )
            self.operations.append(op)
            return op
        finally:
            self.lock.release(cpu)

    def clear_s2pt(self, cpu: int, vpn: int) -> S2PTOperation:
        """Unmap ``vpn``: one leaf write, then ``barrier; tlbi``."""
        self.lock.acquire(cpu)
        try:
            mark = len(self.pagetable.write_log)
            if not self.pagetable.unmap(vpn):
                raise HypercallError(
                    f"clear_s2pt({self.owner_name}): vpn {vpn:#x} not mapped"
                )
            writes = tuple(self.pagetable.write_log[mark:])
            do_tlbi = not self._buggy_skip_tlbi
            if do_tlbi:
                self.tlb_invalidations += 1
            op = S2PTOperation(
                kind="unmap",
                vpn=vpn,
                writes=writes,
                barrier_before_tlbi=not self._buggy_skip_barrier,
                tlbi=do_tlbi,
            )
            self.operations.append(op)
            return op
        finally:
            self.lock.release(cpu)

    # ------------------------------------------------------------------
    def translate(self, vpn: int) -> Optional[int]:
        return self.pagetable.walk(vpn)

    def is_mapped(self, vpn: int) -> bool:
        return self.pagetable.is_mapped(vpn)

    def table_pages(self) -> int:
        """Table pages in use — the quantity 3-level tables reduce."""
        return self.pagetable.table_count()
