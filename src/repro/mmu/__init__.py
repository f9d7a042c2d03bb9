"""MMU substrate: page tables, walkers, TLBs, and the SMMU."""

from repro.mmu.pagetable import (
    BlockEntry,
    MultiLevelPageTable,
    PTWrite,
    PageTableLayout,
)
from repro.mmu.walker import (
    WalkResult,
    WalkStatus,
    walk,
    walk_mapped,
    walk_memory,
)
from repro.mmu.tlb import TLB, TLBStats
from repro.mmu.smmu import DMAResult, SMMU, SMMUContext

__all__ = [
    "BlockEntry",
    "MultiLevelPageTable",
    "PTWrite",
    "PageTableLayout",
    "WalkResult",
    "WalkStatus",
    "walk",
    "walk_mapped",
    "walk_memory",
    "TLB",
    "TLBStats",
    "DMAResult",
    "SMMU",
    "SMMUContext",
]
