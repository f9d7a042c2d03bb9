"""Tests for the command-line interface (repro.cli)."""

from pathlib import Path

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestShow:
    def test_show_listing(self, capsys):
        code, out = run_cli(capsys, "show", "LB")
        assert code == 0
        assert "thread 0" in out
        assert "postcondition" in out

    def test_show_fuzzy_match(self, capsys):
        code, out = run_cli(capsys, "show", "Example3-vcpu-switch[buggy]")
        assert code == 0
        assert "vcpu" in out.lower() or "0x30" in out

    def test_unknown_test_exits(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "show", "definitely-not-a-test")


class TestExplain:
    def test_explain_relaxed_outcome(self, capsys):
        code, out = run_cli(capsys, "explain", "LB", "t0_r0=1", "t1_r1=1")
        assert code == 0
        assert "promise list" in out

    def test_explain_default_condition(self, capsys):
        code, out = run_cli(capsys, "explain", "SB")
        assert code == 0
        assert "outcome:" in out

    def test_sc_unreachable_returns_nonzero(self, capsys):
        code, out = run_cli(capsys, "explain", "LB",
                            "t0_r0=1", "t1_r1=1", "--sc")
        assert code == 1
        assert "unreachable" in out


class TestLitmus:
    def test_paper_corpus(self, capsys):
        code, out = run_cli(capsys, "litmus", "--corpus", "paper")
        assert code == 0
        assert "Example2" in out


class TestPortability:
    def test_output_matches_the_pinned_matrix(self, capsys, tmp_path):
        """``repro portability -o`` is how the pinned matrix is
        regenerated, so on an unchanged tree it writes the same bytes."""
        out_path = tmp_path / "portability.json"
        code, out = run_cli(capsys, "portability", "--jobs", "1",
                            "--no-cache", "-o", str(out_path))
        assert code == 0
        assert "CERTIFIED" in out
        pinned = (Path(__file__).parent / "corpus"
                  / "portability_verdicts.json")
        assert out_path.read_bytes() == pinned.read_bytes()


class TestTables:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "VRM framework" in out

    def test_table3(self, capsys):
        code, out = run_cli(capsys, "table3")
        assert code == 0
        assert "Hypercall" in out

    def test_figure8(self, capsys):
        code, out = run_cli(capsys, "figure8")
        assert code == 0
        assert "Kernbench" in out


class TestVerify:
    def test_verify_locks(self, capsys):
        code, out = run_cli(capsys, "verify-locks")
        assert code == 0
        assert "ticket-lock" in out

    def test_verify_sekvm_default(self, capsys):
        code, out = run_cli(capsys, "verify-sekvm")
        assert code == 0
        assert "gen_vmid[verified]" in out


class TestFuzzAndContention:
    def test_fuzz_command(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--count", "5", "--jobs", "1")
        assert code == 0
        assert "5 programs" in out
        assert "all oracles agreed" in out

    def test_fuzz_new_flags(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "fuzz", "--seed", "11", "--budget", "4",
            "--profiles", "fenced,sync", "--corpus", str(tmp_path),
            "--jobs", "1",
        )
        assert code == 0
        assert "seed 11" in out
        assert "fenced/sync" in out

    def test_fuzz_rejects_unknown_profile(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--budget", "1",
                            "--profiles", "bogus")
        assert code == 2
        assert "unknown profile" in out

    def test_contention_command(self, capsys):
        code, out = run_cli(capsys, "contention")
        assert code == 0
        assert "vm-lock" in out


class TestRepairCommand:
    def test_repair_buggy_example(self, capsys):
        code, out = run_cli(capsys, "repair", "Example3-vcpu-switch[buggy]")
        assert code == 0
        assert "minimal repair" in out
        assert "release" in out and "acquire" in out

    def test_repair_robust_example(self, capsys):
        code, out = run_cli(capsys, "repair", "Example3-vcpu-switch[fixed]")
        assert code == 0
        assert "already robust" in out
