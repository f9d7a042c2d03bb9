"""The exploration engine's optimization layers must be invisible:
partial-order reduction, canonical state interning, the persistent
exploration cache, and the multiprocess harness may change cost, never
results.  These tests pin that down against the serial unreduced
baseline."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.conformance.oracles import check_program
from repro.ir import ThreadBuilder, build_program
from repro.litmus.catalog import example2_gen_vmid, full_corpus
from repro.litmus.runner import SC_CFG, rm_config, run_corpus, run_litmus
from repro.memory import (
    ModelConfig,
    cached_explore,
    clear_memory_cache,
    explore,
    parse_register_key,
)
from repro.memory.cache import exploration_key
from repro.parallel import available_cpus, parallel_map, plan_jobs, resolve_jobs

X, Y = 0x10, 0x20
SRC = Path(__file__).resolve().parent.parent / "src"


def _running(pid):
    """Is *pid* a live (not exited, not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestPORCrossCheck:
    def test_por_equals_unreduced_on_catalog(self):
        """POR-reduced behavior sets equal the unreduced ones bit for bit
        across the catalog (the ``por`` oracle)."""
        corpus = full_corpus()
        assert len(corpus) >= 20
        for test in corpus:
            rm = rm_config(test.max_promises)
            assert check_program(
                test.program, ("por",), sc=SC_CFG, rm=rm
            ) == [], test.name
            for cfg in (SC_CFG, rm):
                observe = sorted(test.program.initial_memory)
                reduced = cached_explore(test.program, cfg,
                                         observe_locs=observe, por=True)
                baseline = cached_explore(test.program, cfg,
                                          observe_locs=observe, por=False)
                assert reduced.complete == baseline.complete, test.name
                assert reduced.states_explored <= baseline.states_explored

    def test_check_mode_runs_both_searches(self):
        t0 = ThreadBuilder(0)
        t0.store(X, 1).load("r0", Y)
        t1 = ThreadBuilder(1)
        t1.store(Y, 1).load("r1", X)
        program = build_program(
            [t0, t1], observed={0: ["r0"], 1: ["r1"]},
            initial_memory={X: 0, Y: 0},
        )
        assert check_program(
            program, ("por",), rm=ModelConfig(relaxed=True)
        ) == []

    def test_interning_off_is_identical(self, monkeypatch):
        t0 = ThreadBuilder(0)
        t0.store(X, 1).load("r0", Y)
        t1 = ThreadBuilder(1)
        t1.store(Y, 1).load("r1", X)
        program = build_program(
            [t0, t1], observed={0: ["r0"], 1: ["r1"]},
            initial_memory={X: 0, Y: 0},
        )
        # gen_vmid's two CPUs run the same code: the visited set is
        # keyed up to a swap of them, with or without interning.
        symmetric = example2_gen_vmid(True)
        cfg = ModelConfig(relaxed=True)
        interned = [explore(p, cfg) for p in (program, symmetric)]
        assert interned[1].stats.symmetric_threads == 2
        monkeypatch.setenv("REPRO_INTERN", "0")
        for p, on in zip((program, symmetric), interned):
            off = explore(p, cfg)
            assert on.behaviors == off.behaviors
            assert on.states_explored == off.states_explored


class TestBudgetAccounting:
    def test_state_budget_count_is_exact(self):
        threads = []
        for tid in range(3):
            b = ThreadBuilder(tid)
            b.store(X, tid).store(Y, tid).load("a", X).load("b", Y)
            threads.append(b)
        program = build_program(threads, initial_memory={X: 0, Y: 0})
        for budget in (1, 5, 100):
            result = explore(
                program, ModelConfig(relaxed=True, max_states=budget)
            )
            assert not result.complete
            assert result.states_explored == budget

    def test_complete_run_unaffected_by_budget_fix(self):
        b = ThreadBuilder(0)
        b.store(X, 1)
        program = build_program([b], initial_memory={X: 0})
        result = explore(program, ModelConfig(relaxed=False))
        assert result.complete
        assert result.states_explored <= 5


class TestParallelHarness:
    def test_parallel_corpus_identical_and_ordered(self):
        corpus = full_corpus()[:8]
        serial = run_corpus(corpus, jobs=None, cache=False)
        parallel = run_corpus(corpus, jobs=2, cache=False)
        assert [o.test.name for o in serial] == [t.name for t in corpus]
        assert [o.test.name for o in parallel] == [t.name for t in corpus]
        for a, b in zip(serial, parallel):
            assert a.sc.behaviors == b.sc.behaviors
            assert a.rm.behaviors == b.rm.behaviors
            assert a.passed == b.passed

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) == available_cpus()

    def test_parallel_map_preserves_order(self):
        items = list(range(17))
        assert parallel_map(str, items, jobs=4) == [str(i) for i in items]

    def test_parallel_map_serial_fallback(self):
        calls = []
        assert parallel_map(calls.append, [1, 2, 3], jobs=1) == [None] * 3
        assert calls == [1, 2, 3]

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        """A worker that dies mid-item fails the whole map with
        ``BrokenProcessPool`` and leaves no worker behind.  Run in a
        child interpreter with a timeout, since the failure being
        guarded against is a hang."""
        if plan_jobs(2, 4).workers < 2:
            pytest.skip("one CPU: parallel_map runs serially in-process")
        script = textwrap.dedent(f"""
            import os, sys
            from repro.parallel import parallel_map

            def work(item):
                open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
                if item == 2:
                    os._exit(3)
                return item

            parallel_map(work, range(4), jobs=2)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _out, err = child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("parallel_map hung after a worker died")
        assert child.returncode != 0
        assert "BrokenProcessPool" in err, err
        workers = [int(name) for name in os.listdir(tmp_path)]
        assert workers
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a pool worker outlived the map"
            time.sleep(0.05)


class TestExplorationCache:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXPLORE_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        yield tmp_path
        clear_memory_cache()

    def _program(self, value: int = 1):
        b = ThreadBuilder(0)
        b.store(X, value).load("r0", X)
        return build_program([b], observed={0: ["r0"]},
                             initial_memory={X: 0})

    def test_memo_hit_returns_same_result(self):
        cfg = ModelConfig(relaxed=True)
        first = cached_explore(self._program(), cfg)
        second = cached_explore(self._program(), cfg)
        assert second is first  # in-process memo hit

    def test_disk_round_trip(self, isolated_cache):
        cfg = ModelConfig(relaxed=True)
        first = cached_explore(self._program(), cfg)
        files = list(isolated_cache.glob("*.pkl"))
        assert len(files) == 1
        clear_memory_cache()
        second = cached_explore(self._program(), cfg)
        assert second == first
        assert len(list(isolated_cache.glob("*.pkl"))) == 1

    def test_key_invalidates_on_program_change(self):
        cfg = ModelConfig(relaxed=True)
        k1 = exploration_key(self._program(1), cfg, None, False, True)
        k2 = exploration_key(self._program(2), cfg, None, False, True)
        assert k1 != k2

    def test_key_invalidates_on_config_change(self):
        program = self._program()
        k1 = exploration_key(program, ModelConfig(relaxed=True), None,
                             False, True)
        k2 = exploration_key(program, ModelConfig(relaxed=False), None,
                             False, True)
        k3 = exploration_key(
            program,
            ModelConfig(relaxed=True, max_promises_per_thread=2),
            None, False, True,
        )
        assert len({k1, k2, k3}) == 3

    def test_key_sensitive_to_observe_order(self):
        program = self._program()
        cfg = ModelConfig(relaxed=True)
        k1 = exploration_key(program, cfg, (X, Y), False, True)
        k2 = exploration_key(program, cfg, (Y, X), False, True)
        assert k1 != k2

    def test_cache_false_bypasses(self, isolated_cache):
        cfg = ModelConfig(relaxed=True)
        first = cached_explore(self._program(), cfg, cache=False)
        second = cached_explore(self._program(), cfg, cache=False)
        assert first == second
        assert first is not second
        assert not list(isolated_cache.glob("*.pkl"))

    def test_disabled_disk_layer(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
        cached_explore(self._program(), ModelConfig(relaxed=True))
        assert not list(isolated_cache.glob("*.pkl"))


class TestRegisterKeyParsing:
    def test_multi_digit_tid(self):
        assert parse_register_key("t10_r1") == (10, "r1")

    def test_underscored_register(self):
        assert parse_register_key("t0_my_reg") == (0, "my_reg")

    @pytest.mark.parametrize("bad", ["r0", "t_r0", "tx_r0", "t0", "0_r0",
                                     "t0-r0", ""])
    def test_malformed_keys_raise(self, bad):
        with pytest.raises(ValueError, match="malformed register key"):
            parse_register_key(bad)

    def test_run_litmus_uses_shared_configs(self):
        test = full_corpus()[0]
        outcome1 = run_litmus(test)
        outcome2 = run_litmus(test)
        assert outcome1.sc.behaviors == outcome2.sc.behaviors
        assert rm_config(test.max_promises) is rm_config(test.max_promises)
