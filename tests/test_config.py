"""The ``REPRO_*`` knob table (``repro.config``): strict parsing, scoped
overrides, the CLI's leak-free flags, and which knobs reach cache keys."""

import os
from pathlib import Path

import pytest

from repro import config
from repro.cli import main
from repro.litmus.catalog import full_corpus
from repro.litmus.runner import litmus_configs, run_litmus
from repro.memory import cache
from repro.memory.exploration import por_default_enabled
from repro.memory.semantics import (
    PROMISING_ARM,
    cert_memo_enabled,
    env_model,
    resolve_model,
)
from repro.memory.state import interning_enabled
from repro.serve.server import ServeConfig
from repro.smt.backend import bmc_condition_results
from repro.smt.encode import Unsupported
from repro.vrm.verifier import fuse_default_enabled

ROOT = Path(__file__).resolve().parents[1]

BOOL_KNOBS = [name for name, knob in config.KNOBS.items()
              if knob.parse is config.KNOBS["por"].parse]

#: The function each switch is read through.
READERS = {
    "por": por_default_enabled,
    "intern": interning_enabled,
    "cert_memo": cert_memo_enabled,
    "fuse": fuse_default_enabled,
    "explore_cache": cache.cache_enabled,
    "explore_memo": cache.memo_enabled,
    "bmc_induction": lambda: config.get("bmc_induction"),
}


@pytest.fixture(autouse=True)
def clean_env(tmp_path, monkeypatch):
    """Every knob unset except a private cache directory."""
    for knob in config.KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)
    monkeypatch.setenv("REPRO_EXPLORE_CACHE_DIR", str(tmp_path))
    cache.clear_memory_cache()
    yield
    cache.clear_memory_cache()


def _repro_env():
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


class TestStrictParsing:
    def test_bool_knobs_are_the_seven_switches(self):
        assert sorted(BOOL_KNOBS) == sorted(READERS)

    @pytest.mark.parametrize("name", sorted(READERS))
    @pytest.mark.parametrize("raw", ["false", "off", "true", "2"])
    def test_bool_rejects_words(self, monkeypatch, name, raw):
        env = config.KNOBS[name].env
        monkeypatch.setenv(env, raw)
        with pytest.raises(ValueError, match=env):
            READERS[name]()

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_bool_accepts_zero_one_and_empty(self, monkeypatch, name):
        knob = config.KNOBS[name]
        monkeypatch.setenv(knob.env, "0")
        assert READERS[name]() is False
        monkeypatch.setenv(knob.env, "1")
        assert READERS[name]() is True
        monkeypatch.setenv(knob.env, "")
        assert READERS[name]() is knob.default

    def test_model_ignores_case_and_space(self, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL", "ARM")
        assert env_model() == "arm"
        monkeypatch.setenv("REPRO_MODEL", " Tso ")
        assert resolve_model(PROMISING_ARM).tso
        monkeypatch.setenv("REPRO_MODEL", "power")
        with pytest.raises(ValueError, match="REPRO_MODEL"):
            env_model()

    def test_backend_validates_the_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert config.get("backend") == "explore"
        monkeypatch.setenv("REPRO_BACKEND", "bmc")
        assert config.get("backend") == "bmc"
        monkeypatch.setenv("REPRO_BACKEND", " BMC ")
        assert config.get("backend") == "bmc"
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert config.get("backend") == "explore"
        for raw in ("auto", "bogus"):
            monkeypatch.setenv("REPRO_BACKEND", raw)
            with pytest.raises(
                ValueError, match="REPRO_BACKEND.*explore, bmc"
            ):
                config.get("backend")

    def test_vm_features_keep_their_grammar(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_FEATURES", "bbm, had")
        assert config.get("vm_features") == frozenset({"bbm", "had"})
        monkeypatch.setenv("REPRO_VM_FEATURES", "all")
        assert config.get("vm_features") == frozenset(config.VM_FEATURES)
        monkeypatch.setenv("REPRO_VM_FEATURES", "bbm,telepathy")
        with pytest.raises(ValueError, match="REPRO_VM_FEATURES"):
            config.get("vm_features")

    @pytest.mark.parametrize("env, raw", [
        ("REPRO_SERVE_PORT", "80x"),
        ("REPRO_BMC_DEPTH", "-1"),
        ("REPRO_BMC_DEPTH", "2.5"),
    ])
    def test_numbers_reject_garbage(self, monkeypatch, env, raw):
        (name,) = [n for n, k in config.KNOBS.items() if k.env == env]
        monkeypatch.setenv(env, raw)
        with pytest.raises(ValueError, match=env):
            config.get(name)


class TestServeConfig:
    def test_from_env_reads_its_four_knobs(self, monkeypatch):
        values = {
            "REPRO_SERVE_HOST": ("0.0.0.0", "host", "0.0.0.0"),
            "REPRO_SERVE_PORT": ("9001", "port", 9001),
            "REPRO_SERVE_WORKERS": ("3", "workers", 3),
            "REPRO_SERVE_QUEUE": ("7", "queue_limit", 7),
        }
        assert ServeConfig.from_env() == ServeConfig()
        for env, (raw, _, _) in values.items():
            monkeypatch.setenv(env, raw)
        cfg = ServeConfig.from_env(queue_limit=5)
        for env, (_, field, want) in values.items():
            assert getattr(cfg, field) == (
                5 if field == "queue_limit" else want)

    def test_from_env_rejects_a_bad_port(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "80x")
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            ServeConfig.from_env()


class TestOverride:
    def test_sets_then_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSE", "1")
        with config.override(model="sc", fuse=False, por=None):
            assert os.environ["REPRO_MODEL"] == "sc"
            assert config.get("fuse") is False
            assert "REPRO_POR" not in os.environ
        assert "REPRO_MODEL" not in os.environ
        assert os.environ["REPRO_FUSE"] == "1"

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with config.override(backend="bmc"):
                raise RuntimeError
        assert "REPRO_BACKEND" not in os.environ

    def test_validates_before_setting_anything(self):
        with pytest.raises(ValueError, match="REPRO_BMC_DEPTH"):
            with config.override(model="tso", bmc_depth=-3):
                pass
        assert "REPRO_MODEL" not in os.environ
        with pytest.raises(KeyError):
            with config.override(modle="tso"):
                pass


class TestCliLeavesEnvironmentAlone:
    def test_in_process_main_does_not_leak_flags(self, capsys):
        before = _repro_env()
        code = main([
            "litmus", "--corpus", "classic", "--jobs", "1",
            "--model", "sc", "--no-memo", "--no-cache",
        ])
        capsys.readouterr()
        assert code == 0
        assert _repro_env() == before
        assert resolve_model(PROMISING_ARM).relaxed
        with pytest.raises(SystemExit) as refused:
            main(["litmus", "--backend", "auto"])
        assert refused.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err
        assert _repro_env() == before


# ---------------------------------------------------------------------------
# which knobs reach the cache key
# ---------------------------------------------------------------------------

#: Knobs whose value changes the verdict, so a flip from the default must
#: change the key a fixed relaxed litmus program is cached under: knob ->
#: (flipped value, other knobs the flip needs to matter).
RESULT_CHANGING = {
    "model": ("sc", {}),
    "vm_features": ("all", {}),
    "por": ("0", {}),
    "backend": ("bmc", {}),
    "bmc_depth": ("1", {}),
    "bmc_induction": ("1", {"bmc_depth": "1"}),
}

#: Knobs that only change cost, storage or serving: a flip must leave the
#: key unchanged (so the flip cannot forfeit or fork cache entries).
NEUTRAL = {
    "intern": "0",
    "cert_memo": "0",
    "fuse": "0",
    "explore_cache": "0",
    "explore_memo": "0",
    "explore_cache_dir": "{tmp}/elsewhere",
    "serve_host": "0.0.0.0",
    "serve_port": "9001",
    "serve_workers": "0",
    "serve_queue": "1",
}


def _lookup_keys(monkeypatch, **knobs):
    """Every key the cache layer looks up while running the relaxed
    litmus program LB and its (empty) BMC condition query."""
    (test,) = [t for t in full_corpus() if t.name == "LB"]
    keys = set()
    real = cache._lookup

    def spy(key, expect):
        keys.add(key)
        return real(key, expect)

    cache.clear_memory_cache()
    with monkeypatch.context() as patch, config.override(**knobs):
        patch.setattr(cache, "_lookup", spy)
        run_litmus(test)
        try:
            bmc_condition_results(test.program, litmus_configs(test)[1], ())
        except Unsupported:
            pass  # looked up before the encoder refused (VM features)
    return keys


class TestKeyCoverage:
    def test_every_knob_is_classified(self):
        assert set(RESULT_CHANGING) | set(NEUTRAL) == set(config.KNOBS)
        assert not set(RESULT_CHANGING) & set(NEUTRAL)

    @pytest.mark.parametrize("name", sorted(RESULT_CHANGING))
    def test_result_changing_knob_changes_the_key(self, monkeypatch, name):
        value, base = RESULT_CHANGING[name]
        assert config.get(name) != config.KNOBS[name].parse(value)
        before = _lookup_keys(monkeypatch, **base)
        after = _lookup_keys(monkeypatch, **base, **{name: value})
        assert before and after and before != after

    @pytest.mark.parametrize("name", sorted(NEUTRAL))
    def test_neutral_knob_keeps_the_key(self, monkeypatch, tmp_path, name):
        value = NEUTRAL[name].format(tmp=tmp_path)
        assert config.get(name) != config.KNOBS[name].parse(value)
        before = _lookup_keys(monkeypatch)
        assert before
        assert _lookup_keys(monkeypatch, **{name: value}) == before


class TestDocsTable:
    def test_api_table_matches_the_knobs(self):
        """docs/API.md's knob table has one row per knob, with the
        name, accepted values and default of ``repro.config``."""
        rows = {}
        text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        for line in text.splitlines():
            if line.startswith("| `REPRO_"):
                cells = [c.strip() for c in line.strip("|").split("|")]
                rows[cells[0].strip("`")] = cells[1:4]
        assert set(rows) == {k.env for k in config.KNOBS.values()}
        for name, knob in config.KNOBS.items():
            default = knob.default
            if default is None or default == frozenset():
                shown = "unset"
            elif isinstance(default, bool):
                shown = str(int(default))
            else:
                shown = str(default)
            assert rows[knob.env] == [f"`{name}`", knob.accepts, shown]
