"""KServ: the untrusted hypervisor services (Section 5).

KServ is the bulk of KVM after the retrofit: scheduling, device
emulation, memory allocation.  It runs at EL1 behind a stage 2 page
table KCore controls, so everything it does to VMs goes through KCore
hypercalls.  This model gives KServ a page allocator over the frames it
owns, boot/run orchestration helpers, and — for the security tests — a
record of everything it *observes* (page contents it reads, hypercall
results), which is the trace the confidentiality checker compares across
secret-differing runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HypercallError, SecurityViolation
from repro.sekvm.kcore import KCore
from repro.sekvm.s2page import KSERV
from repro.sekvm.vm import image_digest


class KServ:
    """The untrusted host: allocates pages, orchestrates VMs."""

    def __init__(self, kcore: KCore):
        self.kcore = kcore
        self._free_pfns: List[int] = [
            pfn for pfn in self.kcore.s2page.pages_owned_by(KSERV)
        ]
        self._next_vpn = 0
        self.observations: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # page allocation (from KServ-owned frames)
    # ------------------------------------------------------------------
    def alloc_page(self) -> int:
        if not self._free_pfns:
            raise HypercallError("KServ out of memory")
        return self._free_pfns.pop()

    def map_and_write(self, cpu: int, pfn: int, value: int) -> int:
        """Map one of its pages into its stage 2 space and write it."""
        vpn = self._next_vpn
        self._next_vpn += 1
        self.kcore.map_pfn_kserv(cpu, vpn, pfn)
        self.kcore.kserv_write(vpn, value)
        return vpn

    def read(self, vpn: int) -> int:
        value = self.kcore.kserv_read(vpn)
        self.observations.append(("read", value))
        return value

    # ------------------------------------------------------------------
    # VM orchestration
    # ------------------------------------------------------------------
    def create_and_boot_vm(
        self,
        cpu: int,
        image: Sequence[int],
        vcpus: int = 1,
        tamper: Optional[Dict[int, int]] = None,
    ) -> int:
        """Load an image, (optionally tamper with it), and boot a VM.

        Returns the vmid.  ``tamper`` maps image-page index to a value
        KServ substitutes after computing the legitimate digest — the
        attack authenticated boot must defeat.
        """
        vmid = self.kcore.gen_vmid(cpu)
        for vcpu_id in range(vcpus):
            self.kcore.register_vcpu(cpu, vmid, vcpu_id)
        pfns = []
        expected = image_digest(image)
        for idx, content in enumerate(image):
            pfn = self.alloc_page()
            vpn = self.map_and_write(cpu, pfn, content)
            if tamper and idx in tamper:
                self.kcore.kserv_write(vpn, tamper[idx])
            self.kcore.unmap_pfn_kserv(cpu, vpn)
            pfns.append(pfn)
        self.kcore.boot_vm(cpu, vmid, pfns, expected)
        return vmid

    def run_vcpu(self, cpu: int, vmid: int, vcpu_id: int = 0):
        return self.kcore.run_vcpu(cpu, vmid, vcpu_id)

    def stop_vcpu(self, cpu: int, vmid: int, vcpu_id: int = 0) -> None:
        self.kcore.stop_vcpu(cpu, vmid, vcpu_id)

    # ------------------------------------------------------------------
    # adversarial probes (used by the security test suite)
    # ------------------------------------------------------------------
    def try_map_foreign_page(self, cpu: int, pfn: int) -> bool:
        """Attempt to map a page KServ does not own into its own space.

        Returns True when the attack *succeeded* (which the verified
        KCore must never allow)."""
        vpn = self._next_vpn
        self._next_vpn += 1
        try:
            self.kcore.map_pfn_kserv(cpu, vpn, pfn)
        except (HypercallError, SecurityViolation):
            return False
        value = self.kcore.kserv_read(vpn)
        self.observations.append(("stolen", value))
        return True

    def try_dma_attack(self, cpu: int, device_id: int, pfn: int) -> bool:
        """Attempt to program device DMA at a page KServ does not own."""
        try:
            self.kcore.smmu_map(cpu, device_id, iova=0xD0, pfn=pfn, owner=KSERV)
        except (HypercallError, SecurityViolation):
            return False
        return True
