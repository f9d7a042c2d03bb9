"""The conformance oracle registry over the curated corpora.

:data:`repro.conformance.oracles.ORACLES` is the repository's one
differential-check mechanism: every optimization (partial-order
reduction, the certification memo, doomed-state and await-loop
pruning, pass fusion, the SAT/BMC backend, the process pool, the VM
feature gates) is compared with its reference path there.  The fuzzer runs the entries on random genomes; this sweep
runs every applicable entry on the litmus catalog and the SeKVM KCore
wDRF specs (``reduction`` there also under each spec's push/pull
configuration).  A check that a search budget cut before it compared
anything comes back ``inconclusive`` and fails the sweep like a
disagreement: a sweep only passes on checks that compared something.
"""

import pytest

from repro.conformance.oracles import (
    CONFIG,
    MODEL_DIFF,
    ORACLES,
    VM,
    check_program,
)
from repro.litmus.catalog import full_corpus
from repro.litmus.runner import litmus_configs
from repro.sekvm.ir_programs import kcore_buggy_cases, kcore_verified_cases

#: Oracles relating the whole program to a reference path, run on every
#: litmus test under the test's own SC and relaxed configurations.
LITMUS_ORACLES = (
    "containment", "axiomatic", "backend", "por", "memo", "reduction",
    "portability", "vm_neutral",
)

#: Oracles that read a wDRF spec, run on every SeKVM KCore case.
SPEC_ORACLES = ("backend", "monitor", "fuse", "reduction")

#: Every optimization with a reference path has exactly one entry.
OPTIMIZATION_ORACLES = (
    "por", "memo", "reduction", "fuse", "backend", "jobs",
    "vm_neutral", "portability",
)


def _litmus_subjects():
    for test in full_corpus():
        sc, rm = litmus_configs(test)
        yield test.name, dict(program=test.program, sc=sc, rm=rm)


def _spec_subjects():
    for case in list(kcore_verified_cases(4)) + list(kcore_buggy_cases(4)):
        yield case.name, dict(program=case.spec.program, spec=case.spec)


SWEEP = [("litmus", name) for name in LITMUS_ORACLES] + [
    ("sekvm", name) for name in SPEC_ORACLES
]


@pytest.mark.parametrize(
    "corpus,oracle", SWEEP, ids=[f"{c}-{o}" for c, o in SWEEP]
)
def test_catalog_sweep(corpus, oracle):
    subjects = _litmus_subjects() if corpus == "litmus" else _spec_subjects()
    found = []
    for name, subject in subjects:
        found += [
            f"{name}: {d.describe()}"
            for d in check_program(oracles=(oracle,), **subject)
        ]
    assert not found, "\n".join(found)


def test_each_optimization_has_exactly_one_entry():
    names = list(ORACLES)
    assert len(names) == len(set(names))
    for name in OPTIMIZATION_ORACLES:
        assert names.count(name) == 1, name
    assert {o.witness for o in ORACLES.values()} == {MODEL_DIFF, CONFIG, VM}


def test_unknown_oracle_is_rejected():
    program = next(iter(full_corpus())).program
    with pytest.raises(ValueError, match="unknown oracle"):
        check_program(program, ("por", "telepathy"))
