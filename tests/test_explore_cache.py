"""The persistent exploration-cache layer: key sensitivity, disk
round-trips (plain and monitored), and the best-effort degrade paths."""

import json
import multiprocessing
import pickle
import time

import pytest

from repro.cli import main
from repro.ir import ThreadBuilder, build_program
from repro.memory import ModelConfig, cached_explore, clear_memory_cache
from repro.memory import cache as cache_module
from repro.memory.cache import (
    MonitorPassEntry,
    _disk_load,
    _disk_store,
    exploration_key,
    monitored_exploration_key,
)
from repro.memory.datatypes import ExplorationMonitor
from repro.serve import hot_tier

X, Y = 0x10, 0x20


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXPLORE_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    yield tmp_path
    clear_memory_cache()


def two_thread_program():
    t0 = ThreadBuilder(0)
    t0.store(X, 1).load("r0", Y)
    t1 = ThreadBuilder(1)
    t1.store(Y, 1).load("r1", X)
    return build_program(
        [t0, t1], observed={0: ["r0"], 1: ["r1"]},
        initial_memory={X: 0, Y: 0},
    )


def _serve_disk_on(monkeypatch):
    monkeypatch.delenv("REPRO_EXPLORE_CACHE", raising=False)
    assert cache_module.cache_enabled()


def _failing_replace(src, dst):
    raise OSError("killed before the rename")


def _circular_doc():
    doc = {}
    doc["self"] = doc
    return doc


class CountingMonitor(ExplorationMonitor):
    kind = "counting"


class TestKeySensitivity:
    def test_keep_terminal_states_changes_key(self):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        assert exploration_key(program, cfg, None, False, True) != (
            exploration_key(program, cfg, None, True, True)
        )

    def test_por_flag_changes_key(self):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        assert exploration_key(program, cfg, None, False, True) != (
            exploration_key(program, cfg, None, False, False)
        )

    def test_observe_order_changes_key(self):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        assert exploration_key(program, cfg, (X, Y), False, True) != (
            exploration_key(program, cfg, (Y, X), False, True)
        )

    def test_monitored_key_differs_from_plain(self):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        plain = exploration_key(program, cfg, (), False, True)
        monitored = monitored_exploration_key(
            program, cfg, (), True, [CountingMonitor()]
        )
        assert plain != monitored

    def test_monitored_key_sensitive_to_monitor_set(self):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        one = monitored_exploration_key(
            program, cfg, (), True, [CountingMonitor()]
        )
        two = monitored_exploration_key(
            program, cfg, (), True, [CountingMonitor(), CountingMonitor()]
        )
        assert one != two

    def test_monitor_cut_changes_key(self):
        # A cut and an exhaustive pass report different exploration
        # stats, so they must not share a cache entry.
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        assert monitored_exploration_key(
            program, cfg, (), True, [CountingMonitor()], monitor_cut=True
        ) != monitored_exploration_key(
            program, cfg, (), True, [CountingMonitor()], monitor_cut=False
        )


class TestDiskRoundTrip:
    def test_plain_round_trip(self, isolated_cache):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        first = cached_explore(program, cfg)
        assert len(list(isolated_cache.glob("*.pkl"))) == 1
        clear_memory_cache()
        second = cached_explore(program, cfg)
        assert second == first

    def test_monitored_round_trip_restores_monitors(
        self, isolated_cache, monkeypatch
    ):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        live = CountingMonitor()
        first = cached_explore(program, cfg, monitors=[live])
        assert live.terminals_seen > 0
        entry = _disk_load(
            monitored_exploration_key(program, cfg, None, True, [live]),
            MonitorPassEntry,
        )
        assert isinstance(entry, MonitorPassEntry)

        clear_memory_cache()

        def boom(*args, **kwargs):  # a hit must not re-explore
            raise AssertionError("cache miss: explore() was called")

        monkeypatch.setattr("repro.memory.cache.explore", boom)
        replayed = CountingMonitor()
        second = cached_explore(program, cfg, monitors=[replayed])
        assert second == first
        assert replayed.snapshot() == live.snapshot()

    def test_corrupted_pickle_degrades_to_recompute(self, isolated_cache):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        first = cached_explore(program, cfg)
        (pkl,) = isolated_cache.glob("*.pkl")
        pkl.write_bytes(b"not a pickle")
        clear_memory_cache()
        second = cached_explore(program, cfg)
        assert second == first

    def test_wrong_type_on_disk_degrades(self, isolated_cache):
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        key = exploration_key(program, cfg, None, False, True)
        (isolated_cache / (key + ".pkl")).write_bytes(
            pickle.dumps({"not": "an ExplorationResult"})
        )
        result = cached_explore(program, cfg)
        assert result.complete

    def test_memo_off_recomputes(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPLORE_CACHE", "0")
        monkeypatch.setenv("REPRO_EXPLORE_MEMO", "0")
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        first = cached_explore(program, cfg)
        second = cached_explore(program, cfg)
        assert second == first
        assert second is not first  # no layer served a stored object


class TestCrashSafeDiskStore:
    """The atomic write-and-replace discipline of ``_disk_store``: a
    reader racing any number of writers sees complete entries only, and
    failure paths never leave debris behind."""

    def test_corrupt_entry_is_deleted_on_load(self, isolated_cache):
        # A truncated pickle must be treated as a miss AND removed, or
        # the corpse would poison every future load of its key.
        key = "0" * 64
        path = isolated_cache / (key + ".pkl")
        path.write_bytes(b"truncated-by-a-killed-worker")
        assert _disk_load(key) is None
        assert not path.exists()

    def test_unpicklable_store_cleans_its_temp_file(self, isolated_cache):
        _disk_store("deadbeef", lambda: None)  # lambdas cannot pickle
        assert list(isolated_cache.glob("*.tmp")) == []
        assert list(isolated_cache.glob("*.pkl")) == []

    @pytest.mark.parametrize("content", [
        b'{"truncated": ',
        b"\xff\xfe not utf-8",
        b'["a list, not a result document"]',
    ], ids=["truncated", "undecodable", "wrong-type"])
    def test_corrupt_serve_entry_is_deleted_on_load(
        self, isolated_cache, monkeypatch, content
    ):
        # The serve layer's JSON result documents share the engine
        # pickles' load path: a corrupt entry is a miss and is removed.
        _serve_disk_on(monkeypatch)
        key = "1" * 64
        folder = isolated_cache / "serve"
        folder.mkdir()
        path = folder / (key + ".json")
        path.write_bytes(content)
        assert hot_tier.disk_load(key) is None
        assert not path.exists()

    @pytest.mark.parametrize("make_doc", [
        lambda: {"verdict": {1, 2}},  # a set is not JSON
        lambda: _circular_doc(),
    ], ids=["unserialisable-value", "circular"])
    def test_unserialisable_serve_document_leaves_no_debris(
        self, isolated_cache, monkeypatch, make_doc
    ):
        _serve_disk_on(monkeypatch)
        hot_tier.disk_store("cafe", make_doc())
        assert list(isolated_cache.rglob("*.tmp")) == []
        assert list(isolated_cache.rglob("*.json")) == []

    def test_cache_clear_removes_only_cache_files(
        self, isolated_cache, monkeypatch, capsys
    ):
        # ``repro cache clear`` in a directory it shares with foreign
        # files: entries and orphaned temp files go, the rest stays.
        _serve_disk_on(monkeypatch)
        cached_explore(two_thread_program(), ModelConfig(relaxed=True))
        hot_tier.disk_store("2" * 64, {"verdict": "ok"})
        with monkeypatch.context() as killed:
            killed.setattr(cache_module, "_discard", lambda path: None)
            killed.setattr(cache_module.os, "replace", _failing_replace)
            _disk_store("3" * 64, "an entry whose writer was killed")
        assert len(list(isolated_cache.glob("*.tmp"))) == 1
        foreign = [isolated_cache / name for name in (
            "BENCHMARK.json", "weights.pkl", "notes.tmp",
        )] + [isolated_cache / "serve" / "notes.json"]
        for path in foreign:
            path.write_text("not a cache file")

        assert main(["cache", "stats", "--json"]) == 0
        disk = json.loads(capsys.readouterr().out)["disk"]
        assert disk["engine"]["entries"] == 1
        assert disk["engine"]["stale_tmp"] == 1
        assert disk["serve"]["entries"] == 1

        assert main(["cache", "clear"]) == 0
        assert capsys.readouterr().out.startswith("removed 3 cache file(s)")
        remaining = {p for p in isolated_cache.rglob("*") if p.is_file()}
        assert remaining == set(foreign)

    def test_concurrent_writers_never_corrupt_a_reader(
        self, isolated_cache
    ):
        """Hammer one key from several writer processes while the test
        process reads it in a loop: every read must return the complete
        entry — ``os.replace`` guarantees no torn state in between."""
        program, cfg = two_thread_program(), ModelConfig(relaxed=True)
        result = cached_explore(program, cfg)  # also seeds the entry
        key = exploration_key(program, cfg, None, False, True)
        ctx = multiprocessing.get_context("fork")
        stop = ctx.Event()

        def hammer():
            while not stop.is_set():
                _disk_store(key, result)

        writers = [ctx.Process(target=hammer, daemon=True)
                   for _ in range(3)]
        for proc in writers:
            proc.start()
        try:
            deadline = time.monotonic() + 0.5
            reads = 0
            while time.monotonic() < deadline:
                assert _disk_load(key) == result
                reads += 1
            assert reads > 0
        finally:
            stop.set()
            for proc in writers:
                proc.join(timeout=10)
        assert _disk_load(key) == result
        assert list(isolated_cache.glob("*.tmp")) == []
