"""The SeKVM wDRF verification pipeline (Sections 5, 5.6).

Every verified primitive must pass all six conditions; every seeded-bug
variant must fail.  The version sweep checks the 3- and 4-level
configurations (a subset of the full matrix for test-time reasons; the
full 16-configuration sweep runs in the benchmark suite).
"""

import pytest

from repro.sekvm import (
    KVMVersion,
    all_versions,
    default_version,
    kcore_buggy_cases,
    kcore_verified_cases,
    verify_sekvm,
)
from repro.vrm import verify_wdrf

VERIFIED = kcore_verified_cases(s2_levels=4)
BUGGY = kcore_buggy_cases(s2_levels=4)


@pytest.mark.parametrize("case", VERIFIED, ids=[c.name for c in VERIFIED])
def test_verified_primitive_passes(case):
    report = verify_wdrf(case.spec)
    assert report.all_verified, report.describe()


@pytest.mark.parametrize("case", BUGGY, ids=[c.name for c in BUGGY])
def test_buggy_variant_rejected(case):
    report = verify_wdrf(case.spec)
    assert not report.all_hold, report.describe()


def test_version_matrix_has_16_entries():
    versions = all_versions()
    assert len(versions) == 16
    assert {v.linux for v in versions} == {
        "4.18", "4.20", "5.0", "5.1", "5.2", "5.3", "5.4", "5.5"
    }
    assert {v.s2_levels for v in versions} == {3, 4}


def test_default_version_is_original_retrofit():
    v = default_version()
    assert v.linux == "4.18" and v.s2_levels == 4


@pytest.mark.parametrize("levels", [3, 4])
def test_verify_sekvm_both_page_table_depths(levels):
    version = KVMVersion(linux="4.18", s2_levels=levels)
    outcome = verify_sekvm(version)
    assert outcome.all_verified, outcome.describe()


def test_verify_sekvm_with_buggy_all_as_expected():
    outcome = verify_sekvm(include_buggy=True)
    assert outcome.all_as_expected, outcome.describe()
    verified = [o for o in outcome.outcomes if o.case.should_verify]
    rejected = [o for o in outcome.outcomes if not o.case.should_verify]
    assert len(verified) == 6
    assert len(rejected) == 7
    # The pooled path merges the same outcomes in case order.
    pooled = verify_sekvm(include_buggy=True, jobs=2)
    assert pooled.describe() == outcome.describe()


def test_describe_lists_every_case():
    outcome = verify_sekvm()
    text = outcome.describe()
    for case in kcore_verified_cases(4):
        assert case.name in text
