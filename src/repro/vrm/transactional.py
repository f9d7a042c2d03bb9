"""Condition 4 — Transactional-Page-Table (Sections 3 and 5.4).

A series of shared-page-table writes inside a critical section is
*transactional* if, under arbitrary reordering of the writes, any page
table walk sees (1) the pre-state walk result, (2) the post-state walk
result, or (3) a page fault.

The decision procedure exploits coherence: Armv8 never reorders two
writes to the *same* location, so a racing walker observes, per entry
location, some prefix of that location's write sequence — and arbitrary
cross-location reordering means those prefixes are independent.  The
checker therefore enumerates every combination of per-location prefixes
and builds the corresponding memory snapshot.  A walk reads one entry
per level and faults at the first zero one, so only the leaves reachable
from the root through non-zero entries can yield a result to compare:
:func:`~repro.mmu.walker.walk_mapped` descends each snapshot's table
tree once, along the indices the probe addresses use, and every mapped
leaf is compared against the pre/post results (a fault is always
allowed).

This is exactly the argument of Section 5.4: ``clear_s2pt`` is a single
write (trivially transactional), and ``set_s2pt`` writes only freshly
allocated zeroed tables plus one previously-empty entry, so any partial
visibility faults.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.errors import VerificationError
from repro.ir.expr import Imm
from repro.ir.instructions import Label, Mov, Nop, PTKind, Store
from repro.ir.program import MMUConfig, Program
from repro.memory.semantics import PTE_VALUE_MASK
from repro.mmu.pagetable import PTWrite
from repro.mmu.walker import WalkResult, walk_mapped
from repro.vrm.conditions import ConditionResult, WDRFCondition

#: One page-table write: (entry location, new value).
Write = Tuple[int, int]


def _snapshot(
    initial: Mapping[int, int], visible: Sequence[Write]
) -> Dict[int, int]:
    snap = dict(initial)
    for loc, val in visible:
        snap[loc] = val
    return snap


def _per_location_prefixes(writes: Sequence[Write]) -> List[List[Sequence[Write]]]:
    """Group writes by location, preserving order; return, per location,
    the list of visible prefixes (including the empty one)."""
    by_loc: Dict[int, List[Write]] = {}
    for write in writes:
        by_loc.setdefault(write[0], []).append(write)
    prefix_choices: List[List[Sequence[Write]]] = []
    for loc in sorted(by_loc):
        seq = by_loc[loc]
        prefix_choices.append([seq[:k] for k in range(len(seq) + 1)])
    return prefix_choices


def enumerate_visibility_snapshots(
    initial: Mapping[int, int], writes: Sequence[Write]
) -> List[Dict[int, int]]:
    """Every memory snapshot a racing walker could observe."""
    choices = _per_location_prefixes(writes)
    snapshots: List[Dict[int, int]] = []
    for combo in itertools.product(*choices):
        visible: List[Write] = [w for prefix in combo for w in prefix]
        snapshots.append(_snapshot(initial, visible))
    return snapshots


def _walk_result(leaves: Mapping[int, int], vpn: int) -> WalkResult:
    """*vpn*'s walk outcome, given the leaf map of its snapshot."""
    ppage = leaves.get(vpn)
    return WalkResult.fault() if ppage is None else WalkResult.ok(ppage)


def check_writes_transactional(
    initial: Mapping[int, int],
    writes: Sequence[Write],
    mmu: MMUConfig,
    probe_vpns: Iterable[int],
) -> ConditionResult:
    """Decide transactionality of one write sequence.

    ``probe_vpns`` are the virtual pages a concurrent user thread could
    walk; each must resolve to the pre-state result, the post-state
    result, or a fault under every visibility snapshot.
    """
    probes = list(probe_vpns)
    snapshots = enumerate_visibility_snapshots(initial, writes)
    # Mask hardware A/D attribute bits at every level: entries observed
    # from a ``had``-enabled execution may carry them, and an unmasked
    # walk would misread `frame | AF` as a different frame (or a bogus
    # intermediate table pointer) and report a phantom violation.
    pre, post, *partial = walk_mapped(
        [initial, _snapshot(initial, writes), *snapshots],
        mmu,
        probes,
        PTE_VALUE_MASK,
    )
    violations: Set[str] = set()
    # Faulting walks are absent from the leaf maps: a fault is always an
    # allowed outcome, so only the mapped leaves need comparing.
    for leaves in partial:
        for vpn, ppage in leaves.items():
            if ppage == pre.get(vpn) or ppage == post.get(vpn):
                continue
            violations.add(
                f"walk of vpn {vpn:#x} under a partial update reached page "
                f"{ppage:#x} (pre: {_walk_result(pre, vpn)}, "
                f"post: {_walk_result(post, vpn)})"
            )
    unique = tuple(sorted(violations))
    return ConditionResult(
        condition=WDRFCondition.TRANSACTIONAL_PAGE_TABLE,
        holds=not unique,
        exhaustive=True,
        evidence=(
            f"checked {len(snapshots)} visibility snapshots x "
            f"{len(probes)} probe addresses for {len(writes)} writes",
        ),
        violations=unique,
    )


def extract_pt_write_sequences(
    program: Program, kinds: Tuple[PTKind, ...] = (PTKind.STAGE2, PTKind.SMMU)
) -> List[List[Write]]:
    """Maximal runs of shared-page-table stores in each kernel thread.

    Stores must have immediate addresses and values (the form every
    KCore page-table primitive compiles to); a non-PT memory access or
    control transfer ends the run.  ``Label``/``Nop``/``Mov`` do not.
    """
    sequences: List[List[Write]] = []
    for thread in program.kernel_threads():
        current: List[Write] = []
        for instr in thread.instrs:
            if isinstance(instr, Store) and instr.pt_kind in kinds:
                if not isinstance(instr.addr, Imm) or not isinstance(
                    instr.value, Imm
                ):
                    raise VerificationError(
                        "transactional checker requires immediate page-table "
                        "store operands"
                    )
                current.append((instr.addr.value, instr.value.value))
            elif isinstance(instr, (Label, Nop, Mov)):
                continue
            else:
                if current:
                    sequences.append(current)
                    current = []
        if current:
            sequences.append(current)
    return sequences


def check_program_transactional(
    program: Program,
    probe_vpns: Optional[Iterable[int]] = None,
) -> ConditionResult:
    """Check every shared-PT write sequence in *program*.

    ``probe_vpns`` defaults to the program MMU's whole (small) virtual
    page space when it is enumerable.
    """
    if program.mmu is None:
        return ConditionResult(
            condition=WDRFCondition.TRANSACTIONAL_PAGE_TABLE,
            holds=True,
            exhaustive=True,
            evidence=("program has no MMU configuration / page tables",),
        )
    if probe_vpns is None:
        total_bits = program.mmu.levels * program.mmu.va_bits_per_level
        if total_bits > 12:
            raise VerificationError(
                "probe_vpns must be supplied for large virtual address spaces"
            )
        probe_vpns = range(1 << total_bits)
    probes = list(probe_vpns)
    sequences = extract_pt_write_sequences(program)
    evidence: List[str] = [f"{len(sequences)} page-table write sequences"]
    violations: List[str] = []
    for seq in sequences:
        result = check_writes_transactional(
            program.initial_memory, seq, program.mmu, probes
        )
        violations.extend(result.violations)
    return ConditionResult(
        condition=WDRFCondition.TRANSACTIONAL_PAGE_TABLE,
        holds=not violations,
        exhaustive=True,
        evidence=tuple(evidence),
        violations=tuple(violations),
    )


def audit_operation_writes(
    op_writes: Sequence[PTWrite], operation: str
) -> ConditionResult:
    """Functional-model audit of one ``map``/``unmap`` operation's log.

    ``map`` operations must only ever write previously-empty entries
    (fresh-table discipline); ``unmap`` operations must be a single
    entry clear.  Together with zeroed table pools these imply
    transactionality (Section 5.4's argument).
    """
    violations: List[str] = []
    if operation == "unmap":
        if len(op_writes) != 1:
            violations.append(
                f"unmap performed {len(op_writes)} writes (must be exactly 1)"
            )
        elif op_writes[0].new != 0:
            violations.append("unmap wrote a non-zero value")
    elif operation == "map":
        for write in op_writes:
            if write.old != 0:
                violations.append(
                    f"map overwrote a non-empty entry at {write.loc:#x} "
                    f"({write.old:#x} -> {write.new:#x})"
                )
    else:
        raise VerificationError(f"unknown page-table operation {operation!r}")
    return ConditionResult(
        condition=WDRFCondition.TRANSACTIONAL_PAGE_TABLE,
        holds=not violations,
        exhaustive=True,
        evidence=(f"audited {len(op_writes)} writes of one {operation}",),
        violations=tuple(violations),
    )
