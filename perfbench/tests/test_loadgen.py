import asyncio
import heapq

import pytest

from perfbench.child import _p95_ms
from perfbench.loadgen import OpenLoop


class FakeClock:
    """Virtual time: a sleeping task wakes when every task is blocked
    and its wake-up is the earliest pending one."""

    def __init__(self):
        self.now = 0.0
        self._timers = []
        self._seq = 0

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        fut = asyncio.get_running_loop().create_future()
        heapq.heappush(self._timers, (self.now + seconds, self._seq, fut))
        self._seq += 1
        await fut

    def run(self, coro):
        async def drive():
            task = asyncio.ensure_future(coro)
            while not task.done():
                for _ in range(20):
                    await asyncio.sleep(0)
                if self._timers and not task.done():
                    when, _seq, fut = heapq.heappop(self._timers)
                    self.now = max(self.now, when)
                    fut.set_result(None)
            return task.result()

        return asyncio.run(drive())


def test_a_stalled_request_is_charged_to_the_requests_behind_it():
    clock = FakeClock()
    loop = OpenLoop(rate=10.0, count=220, slots=1, clock=clock,
                    sleep=clock.sleep)

    async def send(i):
        # Request 0 stalls for 5 s; every other request takes 1 ms.
        await clock.sleep(5.0 if i == 0 else 0.001)
        return i

    clock.run(loop.run(send))

    assert loop.outcome == list(range(220))
    latencies = loop.latencies()
    late = loop.lateness()
    assert latencies[0] == pytest.approx(5.0)
    # Request 1 fell due at 0.1 s but could only be sent at 5.0 s.
    assert late[1] == pytest.approx(4.9)
    assert latencies[1] == pytest.approx(4.901)
    # The backlog drains at 1 ms per request while new requests fall due
    # 100 ms apart: request 49 (due 4.9 s) is still late, request 60
    # (due 6.0 s) is not.
    assert late[49] > 0
    assert late[60] == pytest.approx(0.0)
    # 49 requests waited behind the stall, so the p95 lateness shows it.
    assert _p95_ms(late) > 1000.0


def test_an_unstalled_schedule_is_never_late():
    clock = FakeClock()
    loop = OpenLoop(rate=10.0, count=50, slots=2, clock=clock,
                    sleep=clock.sleep)

    async def send(i):
        await clock.sleep(0.001)

    clock.run(loop.run(send))
    assert max(loop.lateness()) == pytest.approx(0.0)
    assert max(loop.latencies()) == pytest.approx(0.001)


def test_exceptions_are_kept_as_outcomes():
    clock = FakeClock()
    loop = OpenLoop(rate=10.0, count=3, slots=1, clock=clock,
                    sleep=clock.sleep)

    async def send(i):
        if i == 1:
            raise ConnectionRefusedError
        return i

    clock.run(loop.run(send))
    assert isinstance(loop.outcome[1], ConnectionRefusedError)
    assert loop.outcome[2] == 2


def test_serve_traffic_seed_only_reorders_the_same_jobs():
    from collections import Counter

    from perfbench.workloads import (
        REQUESTS_PER_DISTINCT,
        content_id,
        serve_requests,
    )

    def family(job):
        return job.get("model") or job["kind"]

    runs = [serve_requests(seed, 600) for seed in (1, 2)]
    assert runs[0] != runs[1]
    assert ({content_id(j) for j in runs[0]}
            == {content_id(j) for j in runs[1]})
    for jobs in runs:
        assert len({content_id(j) for j in jobs}) == 60
        assert set(Counter(family(j) for j in jobs).values()) == {120}
        first = {}
        for i, job in enumerate(jobs):
            first.setdefault(content_id(job), i)
        # New jobs every tenth request; later repeats re-send a job from
        # an earlier block of ten.
        assert sorted(first.values()) == list(range(0, 600, 10))
        for i, job in enumerate(jobs[REQUESTS_PER_DISTINCT:],
                                REQUESTS_PER_DISTINCT):
            if i % REQUESTS_PER_DISTINCT:
                assert first[content_id(job)] < i - i % REQUESTS_PER_DISTINCT
