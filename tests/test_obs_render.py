"""Golden-file tests for rendered execution explanations.

The renderer's output is deterministic — :func:`find_execution` walks a
fixed DFS order with sorted promise candidates and no POR — so the full
rendered text of a counterexample explanation can be pinned byte for
byte.  Goldens live in ``tests/golden/``; regenerate after an
intentional renderer or engine change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_render.py

and review the diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.litmus import catalog
from repro.memory.behaviors import compare_models
from repro.memory.semantics import PROMISING_ARM
from repro.memory.trace import find_execution
from repro.obs.render import (
    explain_conformance_entry,
    explain_drf_violation,
    explanation_json,
    render_explanation,
)
from repro.sekvm.ir_programs import gen_vmid_case

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_DIR = Path(__file__).parent / "fixtures"
WITNESS = FIXTURE_DIR / "counterexample-7-18-equivalence.json"


def assert_matches_golden(name: str, text: str) -> None:
    """Compare *text* against the named golden (or regenerate it)."""
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        path.write_text(text)
        return
    assert path.exists(), (
        f"golden file {name} missing — run with REPRO_UPDATE_GOLDEN=1"
    )
    assert text == path.read_text(), (
        f"rendered explanation drifted from {name}; if intentional, "
        "regenerate with REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


def _litmus_explanation(test):
    """Render the first RM-only behavior of a litmus test."""
    comparison = compare_models(test.program)
    assert comparison.rm_only, f"{test.name} shows no relaxed behavior"
    target = sorted(comparison.rm_only)[0]
    trace = find_execution(test.program, PROMISING_ARM, lambda b: b == target)
    assert trace is not None
    return render_explanation(
        trace,
        test.program,
        notes=[f"witness: RM-only behavior {target.pretty()}"],
    ), trace


class TestLitmusGoldens:
    """The issue's two litmus counterexamples, pinned byte-for-byte."""

    def test_message_passing_explanation(self):
        text, trace = _litmus_explanation(catalog.message_passing())
        assert_matches_golden("explain_message_passing.txt", text)
        # The famous mechanism is visible: a certified promise made the
        # flag write observable before the data write.
        assert "promised" in text
        assert trace.states  # step-by-step views were rendered
        assert "views:" in text

    def test_load_buffering_explanation(self):
        text, _trace = _litmus_explanation(catalog.load_buffering())
        assert_matches_golden("explain_load_buffering.txt", text)
        assert "coherence order" in text


class TestConformanceWitnessGolden:
    def test_entry_explanation(self):
        entry = json.loads(WITNESS.read_text())
        trace, program, notes = explain_conformance_entry(entry)
        assert trace is not None
        text = render_explanation(
            trace, program, title=f"counterexample: {WITNESS.name}",
            notes=notes,
        )
        assert_matches_golden("explain_conformance_witness.txt", text)
        assert "oracle: equivalence" in text
        assert "shrunk" in text

    def test_entry_explanation_json_schema(self):
        entry = json.loads(WITNESS.read_text())
        trace, program, notes = explain_conformance_entry(entry)
        data = explanation_json(trace, program, notes=notes)
        assert data["schema"] == "repro.obs.explanation/v1"
        assert data["steps"][0]["step"] == 1
        assert all("views" in s for s in data["steps"])
        assert data["outcome"] == trace.behavior.pretty()
        json.dumps(data)  # must be serializable as-is


class TestWDRFGolden:
    def test_gen_vmid_no_barriers_explanation(self):
        case = gen_vmid_case(correct=False)
        trace = explain_drf_violation(
            case.spec.program,
            case.spec.shared_locs,
            case.spec.initial_ownership,
            **case.spec.overrides(),
        )
        assert trace is not None
        text = render_explanation(
            trace,
            case.spec.program,
            title=f"wDRF violation: {case.name}",
            notes=["condition: drf_kernel (ownership discipline)"],
        )
        assert_matches_golden("explain_wdrf_gen_vmid.txt", text)
        assert "PANIC" in text

    def test_verified_gen_vmid_has_no_violation(self):
        case = gen_vmid_case(correct=True)
        trace = explain_drf_violation(
            case.spec.program,
            case.spec.shared_locs,
            case.spec.initial_ownership,
            **case.spec.overrides(),
        )
        assert trace is None


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTraceCommand:
    def test_trace_witness(self, capsys):
        code, out = run_cli(capsys, "trace", str(WITNESS))
        assert code == 0
        assert "oracle: equivalence" in out
        assert "coherence order" in out

    def test_trace_witness_json(self, capsys):
        code, out = run_cli(capsys, "trace", str(WITNESS), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "repro.obs.explanation/v1"

    def test_trace_witness_out_file(self, capsys, tmp_path):
        dest = tmp_path / "explain.txt"
        code, out = run_cli(capsys, "trace", str(WITNESS), "--out", str(dest))
        assert code == 0
        assert "coherence order" in dest.read_text()

    @pytest.mark.parametrize(
        "oracle,profile,threads,witness",
        [
            # model-diff: a relaxed execution SC cannot reach.
            ("containment", "plain", None, "witness: RM-only behavior"),
            # config on a sync genome: the unprotected store panics
            # under the push/pull ownership discipline.
            ("memo", "sync",
             [[["store", 0, 1]], [["pull", 0, 0], ["load", 0, 0],
                                  ["push", 0, 0]]],
             "push/pull ownership"),
            # vm: the program runs under the VM feature families.
            ("vm_neutral", "plain", None, "under VM features"),
        ],
        ids=["model-diff", "config", "vm"],
    )
    def test_trace_each_witness_kind(
        self, capsys, tmp_path, oracle, profile, threads, witness
    ):
        from repro.conformance.oracles import ORACLES

        entry = json.loads(WITNESS.read_text())
        entry["oracle"] = oracle
        if threads is not None:
            entry["shrunk_genome"] = None
            entry["genome"] = {
                "n_locations": 1, "name": "kind-demo", "profile": profile,
                "threads": threads,
            }
        path = tmp_path / f"counterexample-0-0-{oracle}.json"
        path.write_text(json.dumps(entry))
        code, out = run_cli(capsys, "trace", str(path))
        assert code == 0
        assert f"oracle: {oracle}" in out
        assert witness in out, (ORACLES[oracle].witness, out)

    def test_trace_wdrf_buggy(self, capsys):
        code, out = run_cli(capsys, "trace", "--wdrf", "gen_vmid[no-barriers]")
        assert code == 0
        assert "PANIC" in out

    def test_trace_wdrf_verified(self, capsys):
        code, out = run_cli(capsys, "trace", "--wdrf", "gen_vmid[verified]")
        assert code == 0
        assert "satisfies" in out

    def test_trace_unknown_case_lists_names(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "trace", "--wdrf", "definitely-not-a-case")

    def test_litmus_trace_and_metrics_out(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code, out = run_cli(
            capsys, "litmus", "--corpus", "classic", "--no-cache",
            "--trace", str(trace_path), "--metrics-out", str(metrics_path),
        )
        assert code == 0
        trace_data = json.loads(trace_path.read_text())
        assert trace_data["schema"] == "repro.obs.trace/v1"
        assert any(
            e["kind"] == "promise_made" for e in trace_data["events"]
        )
        metrics_data = json.loads(metrics_path.read_text())
        assert metrics_data["schema"] == "repro.obs.metrics/v1"
        assert metrics_data["metrics"]["explore.explorations"]["value"] >= 1


class TestVMFeatureGoldens:
    """One pinned walk-level explanation per VM behavior family.

    Each golden is the rendered execution reaching the family's litmus
    postcondition under the feature set the catalog entry carries — the
    walk-level annotations (BBM window, cached intermediate descriptor,
    hardware A/D write) are part of the pinned text.
    """

    def _vm_explanation(self, test, title):
        from repro.litmus.runner import litmus_configs
        from repro.memory.behaviors import parse_register_key

        _, rm_cfg = litmus_configs(test)
        wanted_regs = {
            parse_register_key(k): v for k, v in test.condition.items()
        }
        wanted_mem = dict(test.memory_condition)

        def predicate(behavior):
            assignment = {(t, r): v for t, r, v in behavior.registers}
            if not all(
                assignment.get(k) == v for k, v in wanted_regs.items()
            ):
                return False
            memory = dict(behavior.memory)
            return all(
                memory.get(loc) == val for loc, val in wanted_mem.items()
            )

        observe = sorted(loc for loc, _ in test.memory_condition)
        trace = find_execution(
            test.program, rm_cfg, predicate, observe_locs=observe
        )
        assert trace is not None, f"{test.name}: postcondition unreachable"
        return render_explanation(
            trace,
            test.program,
            title=title,
            notes=[f"VM features: {', '.join(test.vm_features)}"],
        ), trace

    def test_bbm_amalgamation_explanation(self):
        text, _trace = self._vm_explanation(
            catalog.vm_bbm(honest=False),
            "VM counterexample: break-before-make skipped",
        )
        assert_matches_golden("explain_vm_bbm.txt", text)
        assert "live -> live page-table overwrite" in text

    def test_walk_cache_explanation(self):
        text, _trace = self._vm_explanation(
            catalog.vm_walk_cache(leaf_only=True),
            "VM counterexample: stale cached intermediate walk entry",
        )
        assert_matches_golden("explain_vm_walk_cache.txt", text)
        assert "cached intermediate descriptor" in text

    def test_dirty_bit_explanation(self):
        text, _trace = self._vm_explanation(
            catalog.vm_dirty_bit(),
            "VM witness: hardware access/dirty-bit update",
        )
        assert_matches_golden("explain_vm_dirty_bit.txt", text)
        assert "hw A/D update" in text
        assert "access/dirty bits" in text

    def test_stage2_tlbi_explanation(self):
        text, _trace = self._vm_explanation(
            catalog.vm_stage2_tlbi(stage=1),
            "VM counterexample: stage-1-only TLBI after stage-2 remap",
        )
        assert_matches_golden("explain_vm_stage2.txt", text)
        assert "outcome" in text
