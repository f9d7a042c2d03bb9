import os

from perfbench import verdicts, workloads
from perfbench.hostspeed import CalibratedClock

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _small_portfolio(names):
    wl = workloads.LitmusPortfolio(ROOT, seed=3)
    wl.items = [item for item in wl.items if item[0] in names]
    return wl


def test_pinned_corpus_accepts_the_engine_verdicts():
    wl = _small_portfolio({"SB", "MP"})
    result = wl.run_pass(0, CalibratedClock(calibrate=False))
    assert result.attempted == 6
    assert result.failed == 0, result.problems


def test_a_flipped_digest_raises_fail_ratio():
    wl = _small_portfolio({"SB", "MP"})
    digest = wl.reference.digests["SB"]["rm"]
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    wl.reference.digests["SB"] = dict(wl.reference.digests["SB"], rm=flipped)
    result = wl.run_pass(0, CalibratedClock(calibrate=False))
    assert result.failed == 1
    assert result.failed / result.attempted > 0
    assert any("SB/arm" in p and "digest" in p for p in result.problems)


def test_a_flipped_observed_flag_is_caught():
    wl = _small_portfolio({"SB"})
    wl.reference.observed["SB"] = dict(wl.reference.observed["SB"], sc=True)
    result = wl.run_pass(0, CalibratedClock(calibrate=False))
    assert result.failed == 1
    assert any("observed flag" in p for p in result.problems)


def test_promise_heavy_is_checked_against_the_sat_backend():
    wl = _small_portfolio(set())
    from repro.memory.semantics import ModelConfig
    from repro.smt.backend import bmc_explore

    program = workloads.promise_heavy_program()
    cfg = ModelConfig(relaxed=True, max_promises_per_thread=3)
    sat = bmc_explore(program, cfg, sorted(program.initial_memory),
                      cache=False)
    assert len(sat.behaviors) == 16

    class Partial:
        complete = True
        behaviors = frozenset(list(sat.behaviors)[:15])

    assert wl.reference.problems(None, "arm", Partial(), sat) == [
        "behavior set differs from the SAT backend's"
    ]
    assert wl.reference.problems(None, "arm", sat, sat) == []


def test_serve_documents_are_compared_field_by_field():
    direct = {"behavior_digest": "a", "n_behaviors": 2, "complete": True}
    assert verdicts.serve_problems("explore", dict(direct), direct) == []
    bad = dict(direct, behavior_digest="b")
    assert verdicts.serve_problems("explore", bad, direct) == [
        "behavior_digest differs from the direct run"
    ]
    assert verdicts.serve_problems("explore", None, direct) == [
        "no result document"
    ]
