"""Physical memory: the machine's page frames.

Pages hold a single integer "content" — enough structure for ownership,
confidentiality, and integrity reasoning (a page's content is either a
VM secret, KServ data, or zero after scrubbing), without byte-level
bookkeeping the proofs never look at.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import HypercallError


class PhysicalMemory:
    """The machine's physical page frames."""

    def __init__(self, total_pages: int):
        if total_pages <= 0:
            raise HypercallError("machine needs at least one page")
        self.total_pages = total_pages
        self._pages: List[int] = [0] * total_pages

    def _check(self, pfn: int) -> None:
        if not 0 <= pfn < self.total_pages:
            raise HypercallError(f"pfn {pfn:#x} out of range")

    def read(self, pfn: int) -> int:
        self._check(pfn)
        return self._pages[pfn]

    def write(self, pfn: int, value: int) -> None:
        self._check(pfn)
        self._pages[pfn] = value

    def scrub(self, pfn: int) -> None:
        """Zero a page (ownership-transfer hygiene)."""
        self.write(pfn, 0)

    def snapshot(self, pfns: Sequence[int]) -> List[int]:
        return [self.read(pfn) for pfn in pfns]
