"""The optimization ledger points only at things that exist.

Every row of :data:`repro.conformance.ledger.OPTIMIZATIONS` names an
ablation that is a :data:`repro.config.KNOBS` row or a resolvable
reference path, an oracle in the registry, and mutants that are known
and killed in ``tests/test_mutation_killing.py``.  A row missing its
oracle or mutant must say why.
"""

import importlib
from pathlib import Path

import pytest

from repro import config
from repro.conformance import OPTIMIZATIONS, REFERENCES
from repro.conformance.oracles import ORACLES
from repro.memory.mutants import KNOWN_MUTANTS

KILLING_SUITE = (
    Path(__file__).parent / "test_mutation_killing.py"
).read_text()


@pytest.mark.parametrize("row", OPTIMIZATIONS, ids=lambda r: r.name)
class TestRows:
    def test_ablation_exists(self, row):
        assert row.ablation in config.KNOBS or row.ablation in REFERENCES

    def test_oracle_is_registered(self, row):
        assert row.oracle is None or row.oracle in ORACLES

    def test_mutants_are_known_and_killed(self, row):
        for mutant in row.mutants:
            assert mutant in KNOWN_MUTANTS
            assert f'"{mutant}"' in KILLING_SUITE, (
                f"{mutant} is not seeded in test_mutation_killing.py"
            )

    def test_a_gap_is_explained(self, row):
        if row.oracle is None or not row.mutants:
            assert row.note


def test_names_are_unique():
    names = [row.name for row in OPTIMIZATIONS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name,path", sorted(REFERENCES.items()))
def test_reference_paths_resolve(name, path):
    module, _, attr = path.rpartition(".")
    assert callable(getattr(importlib.import_module(module), attr)), name
