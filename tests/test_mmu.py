"""Unit tests for the MMU substrate: page tables, walker, TLB, SMMU."""

import pytest

from repro.errors import ProgramError, SecurityViolation, VerificationError
from repro.mmu import (
    DMAResult,
    MultiLevelPageTable,
    PageTableLayout,
    SMMU,
    TLB,
    WalkResult,
    walk_mapped,
    walk_memory,
)


class TestPageTableLayout:
    def test_map_and_walk(self):
        layout = PageTableLayout(base=0x1000, levels=2, va_bits_per_level=4)
        layout.map(0x23, 0x77)
        result = walk_memory(layout.memory, layout.mmu_config(), 0x23)
        assert not result.is_fault
        assert result.ppage == 0x77

    def test_unmapped_faults(self):
        layout = PageTableLayout(base=0x1000, levels=2, va_bits_per_level=4)
        layout.map(0x23, 0x77)
        assert walk_memory(layout.memory, layout.mmu_config(), 0x24).is_fault

    def test_plan_map_allocates_intermediates(self):
        layout = PageTableLayout(base=0x1000, levels=3, va_bits_per_level=2)
        writes = layout.plan_map(0b010101, 0x99)
        # Fresh 3-level path: two table insertions + one leaf.
        assert len(writes) == 3
        assert writes[-1][1] == 0x99
        # Not applied until asked.
        assert walk_memory(layout.memory, layout.mmu_config(), 0b010101).is_fault
        layout.apply(writes)
        assert walk_memory(
            layout.memory, layout.mmu_config(), 0b010101
        ).ppage == 0x99

    def test_plan_map_reuses_existing_tables(self):
        layout = PageTableLayout(base=0x1000, levels=2, va_bits_per_level=4)
        layout.map(0x20, 0x50)
        writes = layout.plan_map(0x21, 0x51)  # same top-level slot
        assert len(writes) == 1

    def test_entry_path_and_unmap(self):
        layout = PageTableLayout(base=0x1000, levels=2, va_bits_per_level=4)
        layout.map(0x20, 0x50)
        path = layout.entry_path(0x20)
        assert len(path) == 2
        loc, val, level = layout.unmap(0x20)
        assert val == 0 and level == 1
        assert walk_memory(layout.memory, layout.mmu_config(), 0x20).is_fault

    def test_entry_path_missing_table_raises(self):
        layout = PageTableLayout(base=0x1000, levels=2, va_bits_per_level=4)
        with pytest.raises(ProgramError):
            layout.entry_path(0x55)

    def test_rejects_zero_levels(self):
        with pytest.raises(ProgramError):
            PageTableLayout(base=0, levels=0)


class _CountingMemory(dict):
    """A memory snapshot that counts the entries walks read from it."""

    reads = 0

    def get(self, loc, default=None):
        self.reads += 1
        return super().get(loc, default)


class TestWalkMapped:
    """The one-descent tree walk the Transactional-Page-Table checker
    uses; its agreement with :func:`walk_memory` on random tables is
    checked in ``tests/test_transactional_differential.py``."""

    def _wide(self):
        # 4 levels x 9 bits: every table has 512 entries.
        layout = PageTableLayout(base=0x10000, levels=4, va_bits_per_level=9)
        mapped = {0x12345: 0x77, 0xABCDEF: 0x88}
        for vpn, ppage in mapped.items():
            layout.map(vpn, ppage)
        return layout, mapped

    def test_sparse_probes_read_only_their_paths(self):
        layout, mapped = self._wide()
        fresh = (1 << 36) - 1
        probes = [*mapped, fresh]
        pre = _CountingMemory(layout.memory)
        post = _CountingMemory(layout.memory)
        for loc, val, _level in layout.plan_map(fresh, 0x99):
            post[loc] = val
        leaves = walk_mapped([pre, post], layout.mmu_config(), probes)
        assert leaves == [mapped, {**mapped, fresh: 0x99}]
        # At most one read per probe and level: nowhere near the 512
        # entries of even one table.
        assert pre.reads <= len(probes) * 4
        assert post.reads <= len(probes) * 4

    def test_sparse_transactional_check_reads_only_probe_paths(
        self, monkeypatch
    ):
        from repro.vrm import transactional

        layout, mapped = self._wide()
        fresh = (1 << 36) - 1
        probes = [*mapped, fresh]
        writes = [(loc, val) for loc, val, _ in layout.plan_map(fresh, 0x99)]
        memories = []

        def counting_walk(snapshots, mmu, vpns, value_mask=-1):
            memories.extend(_CountingMemory(m) for m in snapshots)
            return walk_mapped(memories, mmu, vpns, value_mask)

        monkeypatch.setattr(transactional, "walk_mapped", counting_walk)
        result = transactional.check_writes_transactional(
            layout.memory, writes, layout.mmu_config(), probes
        )
        assert result.verified
        # pre, post and one snapshot per prefix combination of the four
        # fresh-path writes (2^4).
        assert len(memories) == 2 + 16
        assert max(memory.reads for memory in memories) <= len(probes) * 4


class TestMultiLevelPageTable:
    def test_map_walk_unmap_roundtrip(self):
        pt = MultiLevelPageTable(levels=4, va_bits_per_level=9)
        assert pt.walk(0x12345) is None
        pt.map(0x12345, 0x777)
        assert pt.walk(0x12345) == 0x777
        assert pt.unmap(0x12345)
        assert pt.walk(0x12345) is None
        assert not pt.unmap(0x12345)

    def test_refuses_overwrite(self):
        pt = MultiLevelPageTable(levels=3)
        pt.map(5, 10)
        with pytest.raises(VerificationError):
            pt.map(5, 11)
        pt.map(5, 11, overwrite=True)
        assert pt.walk(5) == 11

    def test_write_log_records_old_values(self):
        pt = MultiLevelPageTable(levels=2, va_bits_per_level=4)
        pt.map(0x11, 0x50)
        pt.unmap(0x11)
        assert pt.write_log[-1].old == 0x50
        assert pt.write_log[-1].new == 0

    def test_unmap_keeps_intermediate_tables(self):
        pt = MultiLevelPageTable(levels=3, va_bits_per_level=4)
        pt.map(0x111, 0x50)
        tables_before = pt.table_count()
        pt.unmap(0x111)
        assert pt.table_count() == tables_before

    def test_pool_exhaustion(self):
        pt = MultiLevelPageTable(levels=4, va_bits_per_level=9, pool_pages=2)
        with pytest.raises(VerificationError):
            pt.map(0x123456, 1)  # needs 3 intermediate tables

    def test_mappings_enumeration(self):
        pt = MultiLevelPageTable(levels=2, va_bits_per_level=4)
        pt.map(0x10, 1)
        pt.map(0x22, 2)
        assert sorted(pt.mappings()) == [(0x10, 1), (0x22, 2)]


class TestTLB:
    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.insert(0, 1, 101)
        tlb.insert(0, 2, 102)
        assert tlb.lookup(0, 1) == 101   # touch 1 -> 2 becomes LRU
        tlb.insert(0, 3, 103)
        assert tlb.lookup(0, 2) is None  # evicted
        assert tlb.lookup(0, 1) == 101

    def test_stats(self):
        tlb = TLB(entries=4)
        assert tlb.lookup(0, 1) is None
        tlb.insert(0, 1, 10)
        assert tlb.lookup(0, 1) == 10
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        assert tlb.stats.miss_rate == 0.5

    def test_invalidate_by_vpn_is_global_across_asids(self):
        tlb = TLB(entries=8)
        tlb.insert(0, 5, 1)
        tlb.insert(1, 5, 2)
        tlb.insert(1, 6, 3)
        dropped = tlb.invalidate(vpn=5)
        assert dropped == 2
        assert tlb.lookup(1, 6) == 3

    def test_invalidate_all(self):
        tlb = TLB(entries=8)
        tlb.insert(0, 1, 1)
        tlb.insert(1, 2, 2)
        assert tlb.invalidate() == 2
        assert len(tlb) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestSMMU:
    def test_dma_through_mapping(self):
        smmu = SMMU()
        ctx = smmu.context(device_id=1)
        ctx.pagetable.map(0x40, 0x99)
        result = smmu.dma_access(1, 0x40)
        assert result.ok and result.ppage == 0x99

    def test_dma_fault_when_unmapped(self):
        smmu = SMMU()
        assert smmu.dma_access(1, 0x41).faulted

    def test_smmu_tlb_and_invalidation(self):
        smmu = SMMU()
        ctx = smmu.context(device_id=2)
        ctx.pagetable.map(0x40, 0x99)
        smmu.dma_access(2, 0x40)            # fills the SMMU TLB
        ctx.pagetable.unmap(0x40)
        # Stale SMMU TLB entry still serves DMA until invalidated —
        # exactly why clear_spt must invalidate.
        assert smmu.dma_access(2, 0x40).ok
        ctx.invalidate_tlb(0x40)
        assert smmu.dma_access(2, 0x40).faulted

    def test_disabled_smmu_raises(self):
        smmu = SMMU()
        smmu.enabled = False
        with pytest.raises(SecurityViolation):
            smmu.dma_access(1, 0x40)
