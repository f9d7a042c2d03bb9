import pytest

from perfbench import tracing


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_spans_sum_to_the_root():
    clock = FakeClock()
    tracer = tracing.Tracer("test", clock)

    def key():
        clock.now += 0.5

    def step():
        clock.now += 1.0
        key_span()
        clock.now += 2.0

    def certify():
        clock.now += 4.0
        step_span()
        step_span()
        clock.now += 8.0

    key_span = tracer.wrap(key, "StateInterner.key")
    step_span = tracer.wrap(step, "execute_instruction")
    root = tracer.wrap(certify, "certify")

    start = clock.now
    root()
    wall = clock.now - start

    assert tracer.self_s["StateInterner.key"] == pytest.approx(1.0)
    assert tracer.self_s["execute_instruction"] == pytest.approx(6.0)
    assert tracer.self_s["certify"] == pytest.approx(12.0)
    assert sum(tracer.self_s.values()) == pytest.approx(wall)
    assert tracer.root_s == pytest.approx(wall)
    # Both steps ran under the certification span.
    assert tracer.step_cert_self_s == pytest.approx(6.0)
    assert tracer.calls == {"StateInterner.key": 2, "execute_instruction": 2,
                            "certify": 1}
    assert sum(tracing.layer_self([tracer.snapshot()]).values()) == (
        pytest.approx(wall))


def test_recorded_spans_carry_parent_and_run_id():
    clock = FakeClock()
    tracer = tracing.Tracer("run-7", clock)

    def explore():
        clock.now += 1.0
        return None

    inner = tracer.wrap(explore, "explore")

    def cached():
        clock.now += 0.25
        inner()

    outer = tracer.wrap(cached, "cached_explore")
    outer()
    spans = tracer.snapshot()["spans"]
    by_name = {s[1]: s for s in spans}
    assert by_name["explore"][4] == by_name["cached_explore"][0]
    assert by_name["cached_explore"][4] is None
    assert all(s[5] == "run-7" for s in spans)
    assert by_name["cached_explore"][3] - by_name["cached_explore"][2] == (
        pytest.approx(1.25))


def test_a_raising_span_still_closes():
    clock = FakeClock()
    tracer = tracing.Tracer("test", clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("boom")

    wrapped = tracer.wrap(boom, "execute_instruction")
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.self_s["execute_instruction"] == pytest.approx(1.0)
    assert tracer.root_s == pytest.approx(1.0)


def test_install_patches_the_bindings_callers_use_and_restores_them():
    from repro.memory import exploration, semantics

    original = semantics.execute_instruction
    tracer = tracing.Tracer("test", FakeClock())
    tracer.install()
    try:
        assert exploration.execute_instruction is not original
        assert semantics.execute_instruction is not original
    finally:
        tracer.uninstall()
    assert exploration.execute_instruction is original
    assert semantics.execute_instruction is original
