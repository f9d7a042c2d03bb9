"""VRM: the wDRF conditions, their checkers, and the executable theorems.

This is the paper's primary contribution, reproduced as decision
procedures over bounded kernel programs:

* Conditions 1-2 (DRF-Kernel, No-Barrier-Misuse) — push/pull ownership
  panic-freedom on the relaxed model + barrier placement.
* Condition 3 (Write-Once-Kernel-Mapping) — write-history audit.
* Condition 4 (Transactional-Page-Table) — per-location write-prefix
  visibility enumeration against pre/post/fault walk results.
* Condition 5 (Sequential-TLB-Invalidation) — unmap/remap must be
  followed by barrier + TLBI.
* Condition 6 (Memory-Isolation / Weak-Memory-Isolation) — no user
  writes to kernel memory; kernel user-reads forbidden or oracle-masked.
* Theorems 1/2/4 — exhaustive RM ⊆ SC behavior containment.
"""

from repro.vrm.conditions import (
    ConditionResult,
    PassRequest,
    WDRFCondition,
    WDRFReport,
)
from repro.vrm.drf_kernel import check_drf_kernel, plan_drf_kernel
from repro.vrm.barrier_misuse import (
    check_no_barrier_misuse,
    check_no_barrier_misuse_static,
    plan_no_barrier_misuse,
)
from repro.vrm.write_once import (
    audit_write_log,
    check_write_once,
    kernel_pt_locations,
    plan_write_once,
)
from repro.vrm.transactional import (
    audit_operation_writes,
    check_program_transactional,
    check_writes_transactional,
    enumerate_visibility_snapshots,
    extract_pt_write_sequences,
)
from repro.vrm.tlb_sequential import check_sequential_tlb_invalidation
from repro.vrm.isolation import check_memory_isolation, plan_memory_isolation
from repro.vrm.oracle import DataOracle, mask_user_reads
from repro.vrm.theorem import (
    TheoremResult,
    check_theorem1,
    check_theorem2,
    check_theorem4,
    kernel_projection,
)
from repro.vrm.verifier import (
    VerifyStats,
    WDRFSpec,
    fuse_default_enabled,
    pass_fingerprints,
    plan_passes,
    run_condition,
    run_condition_group,
    verify_and_check_theorem,
    verify_wdrf,
)
from repro.vrm.infer import infer_spec, inferred_probe_vpns, inferred_shared_locs, verify_program
from repro.vrm.repair import RepairResult, Strengthening, repair_barriers

__all__ = [
    "ConditionResult",
    "PassRequest",
    "WDRFCondition",
    "WDRFReport",
    "check_drf_kernel",
    "plan_drf_kernel",
    "check_no_barrier_misuse",
    "check_no_barrier_misuse_static",
    "plan_no_barrier_misuse",
    "audit_write_log",
    "check_write_once",
    "kernel_pt_locations",
    "plan_write_once",
    "audit_operation_writes",
    "check_program_transactional",
    "check_writes_transactional",
    "enumerate_visibility_snapshots",
    "extract_pt_write_sequences",
    "check_sequential_tlb_invalidation",
    "check_memory_isolation",
    "plan_memory_isolation",
    "DataOracle",
    "mask_user_reads",
    "TheoremResult",
    "check_theorem1",
    "check_theorem2",
    "check_theorem4",
    "kernel_projection",
    "VerifyStats",
    "WDRFSpec",
    "fuse_default_enabled",
    "pass_fingerprints",
    "plan_passes",
    "run_condition",
    "run_condition_group",
    "verify_and_check_theorem",
    "verify_wdrf",
    "infer_spec",
    "inferred_probe_vpns",
    "inferred_shared_locs",
    "verify_program",
    "RepairResult",
    "Strengthening",
    "repair_barriers",
]
