"""KCore's EL2 page table — Write-Once-Kernel-Mapping in action (§5.1).

At boot, all physical memory is mapped to a contiguous virtual region of
KCore's EL2 table (the linear map), like Linux's 64-bit kernel map.
After boot the table changes exactly one way: the ``remap_pfn``
hypercall maps physical pages holding a VM image into a contiguous
region *outside* the linear map so the integrated crypto library can
hash them for boot authentication.  The single primitive ``set_el2_pt``
refuses to overwrite any existing mapping, and nothing ever unmaps or
remaps, so the Write-Once condition holds by construction — which this
class enforces at runtime and exposes for audit via the write log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HypercallError, VerificationError
from repro.mmu.pagetable import MultiLevelPageTable, PTWrite


class EL2PageTable:
    """The kernel page table of KCore.

    Virtual layout (page-number granularity):

    * ``[0, linear_pages)`` — the boot-time linear map: VA ``i`` maps
      physical page ``i``.
    * ``[remap_base, ...)`` — the ``remap_pfn`` region, grown linearly,
      never reused.
    """

    def __init__(
        self,
        linear_pages: int,
        levels: int = 4,
        va_bits_per_level: int = 9,
        remap_base: Optional[int] = None,
    ):
        self.linear_pages = linear_pages
        self.pagetable = MultiLevelPageTable(
            levels=levels, va_bits_per_level=va_bits_per_level, name="el2-pt"
        )
        self.remap_base = (
            remap_base if remap_base is not None else 2 * linear_pages
        )
        self._remap_next = self.remap_base
        self.booted = False

    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Install the linear map; callable exactly once."""
        if self.booted:
            raise VerificationError("EL2 page table already booted")
        for pfn in range(self.linear_pages):
            self.set_el2_pt(pfn, pfn)
        self.booted = True

    def set_el2_pt(self, va: int, pfn: int) -> None:
        """The only primitive that writes the EL2 table (Section 5.1).

        Verified property: it can never overwrite an existing mapping.
        """
        if self.pagetable.is_mapped(va):
            raise VerificationError(
                f"set_el2_pt: VA {va:#x} already mapped — Write-Once-"
                f"Kernel-Mapping forbids overwriting"
            )
        self.pagetable.map(va, pfn, overwrite=False)

    def remap_pfn(self, pfns: Sequence[int]) -> int:
        """Map *pfns* (a possibly discontiguous VM image) to a fresh
        contiguous VA region for hashing; returns the base VA.

        The hypercall never unmaps or remaps: each call consumes fresh
        virtual pages.
        """
        if not self.booted:
            raise HypercallError("remap_pfn before boot")
        base = self._remap_next
        for offset, pfn in enumerate(pfns):
            self.set_el2_pt(base + offset, pfn)
        self._remap_next = base + len(pfns)
        return base

    # ------------------------------------------------------------------
    def translate(self, va: int) -> Optional[int]:
        return self.pagetable.walk(va)

    @property
    def write_log(self) -> List[PTWrite]:
        return self.pagetable.write_log
