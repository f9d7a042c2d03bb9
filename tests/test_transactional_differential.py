"""The Transactional-Page-Table checker against its reference path.

:func:`repro.vrm.transactional.check_writes_transactional` descends each
visibility snapshot's table tree once (:func:`repro.mmu.walker.walk_mapped`).
The reference below is the direct reading of Condition 4: walk every
probe address through every snapshot with :func:`walk_memory` and flag
any walk that neither faults nor matches the pre- or post-state result.
The two must produce equal :class:`ConditionResult`s (verdict, evidence
and the sorted violation strings) on the SeKVM sweep, on the litmus
catalog's page-table programs and on random table shapes and write
sequences.
"""

from typing import Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.instructions import PTKind
from repro.ir.program import MMUConfig
from repro.litmus.catalog import full_corpus
from repro.memory.semantics import PTE_AF, PTE_DIRTY, PTE_VALUE_MASK
from repro.mmu.walker import walk_mapped, walk_memory
from repro.sekvm.ir_programs import kcore_buggy_cases, kcore_verified_cases
from repro.sekvm.versions import all_versions
from repro.vrm.conditions import ConditionResult, WDRFCondition
from repro.vrm.transactional import (
    check_writes_transactional,
    enumerate_visibility_snapshots,
    extract_pt_write_sequences,
)


def _post_state(initial, writes):
    memory = dict(initial)
    memory.update(writes)
    return memory


def reference_transactional(initial, writes, mmu, probe_vpns):
    """Every probe through every snapshot, one ``walk_memory`` each."""
    probes = list(probe_vpns)
    post_mem = _post_state(initial, writes)
    pre = {v: walk_memory(initial, mmu, v, PTE_VALUE_MASK) for v in probes}
    post = {v: walk_memory(post_mem, mmu, v, PTE_VALUE_MASK) for v in probes}
    violations = []
    snapshots = enumerate_visibility_snapshots(initial, writes)
    for snap in snapshots:
        for vpn in probes:
            result = walk_memory(snap, mmu, vpn, PTE_VALUE_MASK)
            if result.is_fault or result == pre[vpn] or result == post[vpn]:
                continue
            violations.append(
                f"walk of vpn {vpn:#x} under a partial update reached page "
                f"{result.ppage:#x} (pre: {pre[vpn]}, post: {post[vpn]})"
            )
    unique = tuple(sorted(set(violations)))
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


def _assert_agree(initial, writes, mmu, probes):
    expected = reference_transactional(initial, writes, mmu, probes)
    assert check_writes_transactional(initial, writes, mmu, probes) == expected
    return expected


def _all_vpns(mmu: MMUConfig):
    return range(1 << (mmu.levels * mmu.va_bits_per_level))


# ---------------------------------------------------------------------------
# (a) the curated corpora
# ---------------------------------------------------------------------------

def test_sekvm_sweep_agrees():
    checked = 0
    verdicts = set()
    for version in all_versions():
        cases = list(kcore_verified_cases(version.s2_levels))
        cases += kcore_buggy_cases(version.s2_levels)
        for case in cases:
            program = case.spec.program
            if program.mmu is None:
                continue
            probes = case.spec.probe_vpns
            if probes is None:
                probes = _all_vpns(program.mmu)
            for writes in extract_pt_write_sequences(program):
                result = _assert_agree(
                    program.initial_memory, writes, program.mmu, list(probes)
                )
                verdicts.add(result.holds)
                checked += 1
    assert checked >= 80
    assert verdicts == {True, False}


def test_catalog_page_table_programs_agree():
    checked = 0
    for test in full_corpus():
        program = test.program
        if program.mmu is None:
            continue
        for writes in extract_pt_write_sequences(program, tuple(PTKind)):
            _assert_agree(
                program.initial_memory,
                writes,
                program.mmu,
                list(_all_vpns(program.mmu)),
            )
            checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# (b) random table shapes, write sequences and probe lists
# ---------------------------------------------------------------------------

#: Table bases: the root plus five more, each with room for 8 entries
#: (3 index bits), so any shape below fits without overlap.
_TABLES = [0x100 + 8 * k for k in range(6)]
_FRAMES = [0x40 + k for k in range(4)]


@st.composite
def _scenarios(draw):
    levels = draw(st.integers(1, 4))
    bits = draw(st.integers(1, 3))
    mmu = MMUConfig(root=_TABLES[0], levels=levels, va_bits_per_level=bits)
    slots = [base + i for base in _TABLES for i in range(1 << bits)]
    # Table pointers (aliasing included: any entry may point at any
    # table, the root too), leaf frames and zeros, optionally carrying
    # the hardware access/dirty bits the walk must mask.
    value = st.builds(
        lambda v, af, dirty: v | (PTE_AF if af else 0)
        | (PTE_DIRTY if dirty else 0),
        st.one_of(
            st.sampled_from(_TABLES), st.sampled_from(_FRAMES), st.just(0)
        ),
        st.booleans(),
        st.booleans(),
    )
    # Every table slot starts with a value, so walks reach every level.
    initial = dict(zip(slots, draw(
        st.lists(value, min_size=len(slots), max_size=len(slots))
    )))
    # A few hot locations make same-location repeats likely.
    hot = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=4))
    loc = st.one_of(st.sampled_from(hot), st.sampled_from(slots))
    writes = draw(st.lists(st.tuples(loc, value), max_size=6))
    span = 1 << (levels * bits)
    # Random lists (duplicates, vpns above the span, empty) and, where
    # the reference loop stays cheap, the whole span.
    probe_lists = st.lists(st.integers(0, 2 * span + 3), max_size=12)
    if span <= 256:
        probe_lists = st.one_of(st.just(list(range(span))), probe_lists)
    probes = draw(probe_lists)
    return mmu, initial, writes, probes


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_scenarios())
def test_random_tables_agree(scenario):
    mmu, initial, writes, probes = scenario
    _assert_agree(initial, writes, mmu, probes)


# ---------------------------------------------------------------------------
# (c) the tree walk against the per-vpn walk
# ---------------------------------------------------------------------------

def _per_vpn(memory, mmu, vpns, mask) -> Dict[int, int]:
    leaves = {}
    for vpn in vpns:
        result = walk_memory(memory, mmu, vpn, mask)
        if not result.is_fault:
            leaves[vpn] = result.ppage
    return leaves


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_scenarios(), st.sampled_from([-1, PTE_VALUE_MASK]))
def test_walk_mapped_matches_walk_memory_on_every_vpn(scenario, mask):
    mmu, initial, writes, _ = scenario
    memories: List[Dict[int, int]] = [initial, _post_state(initial, writes)]
    vpns = range(2 * (1 << (mmu.levels * mmu.va_bits_per_level)) + 3)
    assert walk_mapped(memories, mmu, vpns, mask) == [
        _per_vpn(memory, mmu, vpns, mask) for memory in memories
    ]
