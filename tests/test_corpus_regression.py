"""Regression corpus: litmus behavior-set digests must not drift.

The litmus suite asserts each test's *postcondition* — a single
projection of the behavior set.  This suite pins the entire set: a
SHA-256 digest of every behavior (observing all initialized locations)
per program per model, checked against the committed
``tests/corpus/litmus_digests.json``.  Any engine change that moves
any behavior of any catalog program fails here with the offending
program's name, even if every postcondition still matches.

After an intentional semantics change, regenerate with::

    PYTHONPATH=src python -m repro.conformance.digests tests/corpus/litmus_digests.json

The VM-feature verdict matrix (``tests/corpus/vm_features_verdicts.json``,
regenerate with ``python -m repro.vrm.vm_matrix``) is pinned the same
way: any change to where the wDRF conditions stop being sufficient under
the ``REPRO_VM_FEATURES`` families fails here, not silently.

So is the model-portability matrix
(``tests/corpus/portability_verdicts.json``, regenerate with
``python -m repro portability --jobs 1 -o <path>``): the per-model
litmus verdicts, the per-model SeKVM wDRF verdicts, and the containment
chain SC ⊆ TSO ⊆ Arm on every row.
"""

import json
import os

from repro.conformance import behavior_digest, litmus_digests
from repro.litmus.catalog import full_corpus
from repro.memory.cache import cached_explore
from repro.memory.semantics import SC

_CORPUS = os.path.join(os.path.dirname(__file__), "corpus",
                       "litmus_digests.json")
_VM_VERDICTS = os.path.join(os.path.dirname(__file__), "corpus",
                            "vm_features_verdicts.json")
_PORTABILITY = os.path.join(os.path.dirname(__file__), "corpus",
                            "portability_verdicts.json")


def _expected():
    with open(_CORPUS, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestLitmusDigests:
    def test_corpus_file_covers_the_whole_catalog(self):
        expected = _expected()
        catalog = {t.name for t in full_corpus()}
        missing = catalog - set(expected)
        stale = set(expected) - catalog
        assert not missing, (
            f"programs missing from the digest corpus (regenerate it): "
            f"{sorted(missing)}"
        )
        assert not stale, (
            f"digest corpus lists programs no longer in the catalog: "
            f"{sorted(stale)}"
        )

    def test_behavior_sets_match_committed_digests(self):
        expected = _expected()
        drifted = []
        for name, models in sorted(litmus_digests().items()):
            for model, digest in models.items():
                if expected[name][model] != digest:
                    drifted.append(f"{name} ({model.upper()})")
        assert not drifted, (
            "behavior sets drifted from tests/corpus/litmus_digests.json "
            f"for: {', '.join(drifted)} — if the change is intentional, "
            "regenerate with `python -m repro.conformance.digests`"
        )


class TestDigestFunction:
    def test_digest_is_deterministic(self):
        test = full_corpus()[0]
        observe = sorted(test.program.initial_memory)
        a = cached_explore(test.program, SC, observe_locs=observe)
        b = cached_explore(test.program, SC, observe_locs=observe)
        assert behavior_digest(a) == behavior_digest(b)

    def test_digest_depends_on_completeness_flag(self):
        from dataclasses import replace

        test = full_corpus()[0]
        observe = sorted(test.program.initial_memory)
        result = cached_explore(test.program, SC, observe_locs=observe)
        truncated = replace(result, complete=False)
        assert behavior_digest(result) != behavior_digest(truncated)


class TestVMFeatureVerdicts:
    """The committed sufficiency-gap matrix must be reproducible."""

    def _committed(self):
        with open(_VM_VERDICTS, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_matrix_matches_committed_verdicts(self):
        from repro.vrm.vm_matrix import build_matrix

        committed = self._committed()
        recomputed = json.loads(json.dumps(build_matrix()))
        assert recomputed["schema"] == committed["schema"]
        assert recomputed == committed, (
            "the VM-feature verdict matrix drifted from "
            "tests/corpus/vm_features_verdicts.json — if the semantics "
            "change is intentional, regenerate with "
            "`python -m repro.vrm.vm_matrix tests/corpus/"
            "vm_features_verdicts.json` and explain the moved verdicts"
        )

    def test_structural_conditions_hold_everywhere(self):
        """Both checkers pass on every scenario under every feature
        combination: the update protocols themselves are disciplined;
        only the *sufficiency* of the conditions moves."""
        for row in self._committed()["rows"]:
            assert row["transactional_holds"], row
            assert row["tlb_sequential_holds"], row
            assert row["complete"], row

    def test_sufficiency_gaps_are_exactly_the_feature_scenarios(self):
        """The stale outcome appears iff the row's feature set enables
        the family its scenario was built to exercise — and never for
        the honest break-before-make protocol."""
        gated = {
            "bbm-amalgamated": "bbm",
            "walk-cache-leaf-tlbi": "walk-cache",
            "stage2-stage1-tlbi": "stage2",
        }
        for row in self._committed()["rows"]:
            feats = set(row["features"].split(",")) if row["features"] else set()
            if row["scenario"] == "bbm-honest":
                assert not row["stale_observed"], row
            else:
                expected = gated[row["scenario"]] in feats
                assert row["stale_observed"] == expected, row


class TestPortabilityVerdicts:
    """The committed model-portfolio matrix must be reproducible and
    certify SC ⊆ TSO ⊆ Arm on every row."""

    def _committed(self):
        with open(_PORTABILITY, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_matrix_matches_committed_verdicts(self):
        from repro.vrm.portability import build_matrix

        committed = self._committed()
        recomputed = json.loads(json.dumps(build_matrix()))
        assert recomputed["schema"] == committed["schema"]
        assert recomputed == committed, (
            "the portability matrix drifted from "
            "tests/corpus/portability_verdicts.json — if the semantics "
            "change is intentional, regenerate with "
            "`python -m repro portability --jobs 1 -o tests/corpus/"
            "portability_verdicts.json` and explain the moved verdicts"
        )

    def test_containment_certified_on_every_row(self):
        committed = self._committed()
        for section in ("litmus", "sekvm"):
            for row in committed[section]:
                assert row["sc_subset_tso"], row
                assert row["tso_subset_arm"], row

    def test_litmus_rows_cover_the_catalog_and_completed(self):
        committed = self._committed()
        catalog = {t.name for t in full_corpus()}
        pinned = {row["name"] for row in committed["litmus"]}
        assert pinned == catalog, (
            "portability matrix out of sync with the catalog — "
            "regenerate tests/corpus/portability_verdicts.json"
        )
        assert all(row["complete"] for row in committed["litmus"])

    def test_litmus_verdicts_match_catalog_expectations(self):
        """The observed columns are the catalog's pinned verdicts: the
        matrix certifies the models *and* the expectations agree."""
        expectations = {t.name: t for t in full_corpus()}
        for row in self._committed()["litmus"]:
            test = expectations[row["name"]]
            observed = row["observed"]
            assert observed["sc"] == test.allowed_sc, row
            assert observed["arm"] == test.allowed_rm, row
            if test.expected_tso is not None:
                assert observed["tso"] == test.expected_tso, row

    def test_sekvm_verdicts_match_expectations_under_every_model(self):
        """A case the Arm verification accepts must verify under the
        stronger models too — the anti-monotone face of containment."""
        for row in self._committed()["sekvm"]:
            assert row["verified"]["arm"] == row["expected"], row
            if row["verified"]["arm"]:
                assert row["verified"]["tso"], row
                assert row["verified"]["sc"], row
