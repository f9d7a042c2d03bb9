"""Multi-level page tables.

Two representations serve different layers of the reproduction:

* :class:`PageTableLayout` lays tables out in the *flat word-addressed
  memory* of the kernel IR, so litmus programs and the KCore IR fragments
  can store to real entry locations and MMU walkers can race with them —
  the setting of Examples 4-6 and of the Transactional-Page-Table and
  Sequential-TLB-Invalidation conditions.
* :class:`MultiLevelPageTable` is the functional (tree-structured) page
  table used by the SeKVM model: stage 2 tables for KServ/VMs, SMMU
  tables for devices, and KCore's own EL2 table.  It keeps a full write
  log (location, old value, new value) so the wDRF checkers can audit
  update discipline, and it allocates intermediate tables from an
  explicit zeroed page pool exactly as ``set_s2pt`` does in the paper
  (Section 5.4).

Entries are word-granular: a page table at base ``b`` with index width
``w`` occupies locations ``b .. b + 2^w - 1``; a non-zero entry holds the
base of the next-level table or, at the leaf, the physical page.  Entry
value 0 means *empty* and faults the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProgramError, VerificationError
from repro.ir.program import MMUConfig


@dataclass(frozen=True)
class PTWrite:
    """One audited page-table write: where, what was there, what now."""

    loc: int
    old: int
    new: int
    level: int


@dataclass(frozen=True)
class BlockEntry:
    """A huge-page (block) descriptor at a non-leaf level.

    Covers ``2^(va_bits_per_level * levels_below)`` contiguous pages
    starting at ``base`` — Arm's 2 MB / 1 GB block mappings, which KCore
    uses for VM stage 2 tables to reduce TLB pressure.
    """

    base: int


class PageTableLayout:
    """Flat-memory page-table builder for kernel IR programs.

    ``base`` is the first location used for tables; tables are allocated
    upward, each ``2**va_bits_per_level`` words.  ``map`` applies a
    mapping immediately (for pre-state construction); ``plan_map``
    returns the write list *without* applying it, which is how the IR
    fragments for ``set_s2pt`` are generated and how the transactional
    checker enumerates reorderings.
    """

    def __init__(self, base: int, levels: int = 2, va_bits_per_level: int = 4):
        if levels < 1:
            raise ProgramError("need at least one level")
        self.base = base
        self.levels = levels
        self.va_bits_per_level = va_bits_per_level
        self.table_size = 1 << va_bits_per_level
        self.root = base
        self._next_free = base + self.table_size
        self.memory: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def mmu_config(self) -> MMUConfig:
        return MMUConfig(
            root=self.root,
            levels=self.levels,
            va_bits_per_level=self.va_bits_per_level,
        )

    def alloc_table(self) -> int:
        """Allocate a fresh (zeroed) table page."""
        table = self._next_free
        self._next_free += self.table_size
        return table

    def _indices(self, vpn: int) -> List[int]:
        mask = self.table_size - 1
        return [
            (vpn >> (self.va_bits_per_level * (self.levels - 1 - lvl))) & mask
            for lvl in range(self.levels)
        ]

    def entry_path(self, vpn: int) -> List[int]:
        """Entry locations a walk of *vpn* visits, using current tables.

        Requires all intermediate tables to exist (i.e. built via
        :meth:`map` or applied :meth:`plan_map` writes).
        """
        locs: List[int] = []
        table = self.root
        for level, idx in enumerate(self._indices(vpn)):
            loc = table + idx
            locs.append(loc)
            if level + 1 < self.levels:
                table = self.memory.get(loc, 0)
                if table == 0:
                    raise ProgramError(
                        f"entry_path({vpn:#x}): missing level-{level} table"
                    )
        return locs

    def plan_map(self, vpn: int, ppage: int) -> List[Tuple[int, int, int]]:
        """The ``(loc, value, level)`` writes mapping ``vpn -> ppage``.

        Walks from the root; missing intermediate tables are allocated
        from the pool and their insertion becomes part of the plan.  The
        plan is *not* applied; call :meth:`apply` to commit it.  This
        mirrors the walk-allocate-set procedure of ``set_s2pt``.
        """
        writes: List[Tuple[int, int, int]] = []
        planned: Dict[int, int] = {}
        table = self.root
        indices = self._indices(vpn)
        for level, idx in enumerate(indices):
            loc = table + idx
            if level + 1 == self.levels:
                writes.append((loc, ppage, level))
                break
            existing = planned.get(loc, self.memory.get(loc, 0))
            if existing == 0:
                new_table = self.alloc_table()
                writes.append((loc, new_table, level))
                planned[loc] = new_table
                table = new_table
            else:
                table = existing
        return writes

    def apply(self, writes: Sequence[Tuple[int, int, int]]) -> None:
        for loc, value, _level in writes:
            self.memory[loc] = value

    def map(self, vpn: int, ppage: int) -> List[Tuple[int, int, int]]:
        """Map ``vpn -> ppage`` immediately; returns the writes made."""
        writes = self.plan_map(vpn, ppage)
        self.apply(writes)
        return writes

    def unmap(self, vpn: int) -> Tuple[int, int, int]:
        """Clear the leaf entry of *vpn*; returns the single write."""
        leaf = self.entry_path(vpn)[-1]
        write = (leaf, 0, self.levels - 1)
        self.memory[leaf] = 0
        return write

    def leaf_entry(self, vpn: int) -> int:
        """The leaf entry location of a currently-mapped *vpn*."""
        return self.entry_path(vpn)[-1]

    def initial_memory(self) -> Dict[int, int]:
        """Memory contents (entry locations only) for program pre-state."""
        return dict(self.memory)


class MultiLevelPageTable:
    """Functional page table with an explicit zeroed page pool.

    Used by the SeKVM model for stage 2, SMMU, and EL2 tables.  The write
    log records every entry update so the condition checkers can audit
    that (a) the EL2 table is only ever written once per entry
    (Write-Once-Kernel-Mapping) and (b) stage 2 / SMMU updates are
    transactional (each ``map`` writes only freshly-allocated tables plus
    one previously-empty leaf; each ``unmap`` is a single write).
    """

    def __init__(
        self,
        levels: int = 4,
        va_bits_per_level: int = 9,
        pool_pages: int = 4096,
        name: str = "pt",
    ):
        if levels < 1:
            raise ProgramError("need at least one level")
        self.levels = levels
        self.va_bits_per_level = va_bits_per_level
        self.table_size = 1 << va_bits_per_level
        self.name = name
        self._pool_remaining = pool_pages
        self._next_table_id = 1
        self.root: Dict[int, object] = {}
        self.write_log: List[PTWrite] = []
        # Synthetic "locations" for the audit log: (table_id, index).
        self._table_ids: Dict[int, Dict[int, object]] = {0: self.root}

    # ------------------------------------------------------------------
    def _alloc_table(self) -> Tuple[int, Dict[int, object]]:
        if self._pool_remaining <= 0:
            raise VerificationError(
                f"{self.name}: page-table pool exhausted"
            )
        self._pool_remaining -= 1
        table_id = self._next_table_id
        self._next_table_id += 1
        table: Dict[int, object] = {}
        self._table_ids[table_id] = table
        return table_id, table

    def _indices(self, vpn: int) -> List[int]:
        if not 0 <= vpn < (1 << (self.va_bits_per_level * self.levels)):
            raise ProgramError(
                f"{self.name}: vpn {vpn:#x} outside the "
                f"{self.levels}x{self.va_bits_per_level}-bit address space"
            )
        mask = self.table_size - 1
        return [
            (vpn >> (self.va_bits_per_level * (self.levels - 1 - lvl))) & mask
            for lvl in range(self.levels)
        ]

    def _log(self, table_id: int, idx: int, old: int, new: int, level: int) -> None:
        loc = (table_id << 32) | idx
        self.write_log.append(PTWrite(loc=loc, old=old, new=new, level=level))

    # ------------------------------------------------------------------
    def walk(self, vpn: int) -> Optional[int]:
        """Translate *vpn*; None on fault (any empty entry).

        Block entries terminate the walk early: the physical page is the
        block base plus the untranslated low VPN bits.
        """
        node: Dict[int, object] = self.root
        indices = self._indices(vpn)
        for level, idx in enumerate(indices):
            entry = node.get(idx)
            if entry is None:
                return None
            if isinstance(entry, BlockEntry):
                below = self.levels - 1 - level
                offset_mask = (1 << (self.va_bits_per_level * below)) - 1
                return entry.base + (vpn & offset_mask)
            if level + 1 == self.levels:
                assert isinstance(entry, int)
                return entry
            assert isinstance(entry, tuple)
            node = entry[1]  # (table_id, table-dict)
        return None

    def is_mapped(self, vpn: int) -> bool:
        return self.walk(vpn) is not None

    def map(self, vpn: int, ppage: int, overwrite: bool = False) -> int:
        """Map ``vpn -> ppage``; returns the number of entry writes.

        Refuses to overwrite an existing leaf mapping unless asked — the
        default matches ``set_s2pt``'s check-and-set discipline, and the
        EL2 wrapper *never* passes ``overwrite=True``.
        """
        node = self.root
        node_id = 0
        indices = self._indices(vpn)
        writes = 0
        for level, idx in enumerate(indices):
            if level + 1 == self.levels:
                existing = node.get(idx)
                if existing is not None and not overwrite:
                    raise VerificationError(
                        f"{self.name}: map({vpn:#x}) would overwrite an "
                        f"existing mapping to {existing:#x}"
                    )
                self._log(node_id, idx, existing or 0, ppage, level)
                node[idx] = ppage
                writes += 1
                break
            entry = node.get(idx)
            if entry is None:
                table_id, table = self._alloc_table()
                self._log(node_id, idx, 0, table_id, level)
                node[idx] = (table_id, table)
                writes += 1
                node, node_id = table, table_id
            elif isinstance(entry, BlockEntry):
                raise VerificationError(
                    f"{self.name}: map({vpn:#x}) collides with a block "
                    f"mapping at level {level}"
                )
            else:
                assert isinstance(entry, tuple)
                node_id, node = entry[0], entry[1]
        return writes

    def map_block(self, vpn: int, base: int, level: int) -> None:
        """Install a block (huge-page) mapping at *level*.

        ``vpn`` must be aligned to the block size; the target entry must
        be empty (the same check-and-set discipline as leaf mappings,
        which is what keeps block installs transactional).
        """
        if not 0 <= level < self.levels - 1:
            raise VerificationError(
                f"{self.name}: block mappings live at levels "
                f"0..{self.levels - 2}, not {level}"
            )
        below = self.levels - 1 - level
        block_pages = 1 << (self.va_bits_per_level * below)
        if vpn % block_pages:
            raise VerificationError(
                f"{self.name}: vpn {vpn:#x} not aligned to the "
                f"{block_pages}-page block size"
            )
        node = self.root
        node_id = 0
        indices = self._indices(vpn)
        for lvl, idx in enumerate(indices):
            if lvl == level:
                if node.get(idx) is not None:
                    raise VerificationError(
                        f"{self.name}: block map at {vpn:#x} would "
                        f"overwrite an existing entry"
                    )
                self._log(node_id, idx, 0, base, lvl)
                node[idx] = BlockEntry(base)
                return
            entry = node.get(idx)
            if entry is None:
                table_id, table = self._alloc_table()
                self._log(node_id, idx, 0, table_id, lvl)
                node[idx] = (table_id, table)
                node, node_id = table, table_id
            elif isinstance(entry, BlockEntry):
                raise VerificationError(
                    f"{self.name}: vpn {vpn:#x} already covered by a block"
                )
            else:
                assert isinstance(entry, tuple)
                node_id, node = entry[0], entry[1]

    def unmap(self, vpn: int) -> bool:
        """Clear the entry mapping *vpn* (leaf or covering block);
        returns whether it was mapped.

        Never reclaims intermediate tables, matching ``clear_s2pt``: "it
        does not reclaim any empty table so no table at any level will be
        removed or substituted" (Section 5.4).
        """
        node = self.root
        node_id = 0
        indices = self._indices(vpn)
        for level, idx in enumerate(indices):
            entry = node.get(idx)
            if entry is None:
                return False
            if isinstance(entry, BlockEntry):
                self._log(node_id, idx, entry.base, 0, level)
                del node[idx]
                return True
            if level + 1 == self.levels:
                assert isinstance(entry, int)
                self._log(node_id, idx, entry, 0, level)
                del node[idx]
                return True
            assert isinstance(entry, tuple)
            node_id, node = entry[0], entry[1]
        return False

    def mappings(self) -> Iterator[Tuple[int, int]]:
        """All (vpn, ppage) pairs currently mapped.

        Block entries are expanded page by page (callers see the same
        view regardless of mapping granularity).
        """

        def rec(node: Dict[int, object], level: int, prefix: int):
            for idx, entry in sorted(node.items()):
                vpn_part = (prefix << self.va_bits_per_level) | idx
                if isinstance(entry, BlockEntry):
                    below = self.levels - 1 - level
                    pages = 1 << (self.va_bits_per_level * below)
                    base_vpn = vpn_part << (self.va_bits_per_level * below)
                    for offset in range(pages):
                        yield (base_vpn + offset, entry.base + offset)
                elif level + 1 == self.levels:
                    assert isinstance(entry, int)
                    yield (vpn_part, entry)
                else:
                    assert isinstance(entry, tuple)
                    yield from rec(entry[1], level + 1, vpn_part)

        yield from rec(self.root, 0, 0)

    def table_count(self) -> int:
        """Number of table pages in use (including the root)."""
        return self._next_table_id
