"""Open-loop HTTP load at a fixed offered rate.

Request *i* falls due at ``start + i / rate`` whatever happened to the
requests before it.  At most ``slots`` requests are in flight; a request
whose slot is still busy when it falls due waits for one, and requests
are sent in order, so one stalled request delays every request behind
it.  Latency is measured from the due time, never from the send time,
so that wait is charged to the requests that suffered it; how late each
send was is recorded separately (``loadgen.late_ms_p95``).

The clock and the sleep are injectable so the accounting can be tested
on a fake clock.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, List, Optional


class OpenLoop:
    """One open-loop schedule of *count* requests at *rate* per second."""

    def __init__(
        self,
        rate: float,
        count: int,
        slots: int,
        clock: Callable[[], float],
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        if rate <= 0 or count < 1 or slots < 1:
            raise ValueError("rate, count and slots must be positive")
        self.rate = rate
        self.count = count
        self.slots = slots
        self.clock = clock
        self.sleep = sleep
        self.due: List[float] = []
        self.sent: List[float] = [0.0] * count
        self.done: List[float] = [0.0] * count
        self.outcome: List[Any] = [None] * count
        self.in_flight = 0

    async def run(
        self,
        send: Callable[[int], Awaitable[Any]],
        idle: Optional[Callable[[], None]] = None,
        idle_min_s: float = 0.01,
    ) -> None:
        """Send every request; returns when the last one has completed.

        ``send(i)``'s return value (or the exception it raised) is kept
        in ``outcome[i]``.  ``idle()``, when given, is called before a
        request while nothing is in flight and the request is due more
        than ``idle_min_s`` from now; it must take much less than that.
        """
        start = self.clock()
        self.due = [start + i / self.rate for i in range(self.count)]
        free = asyncio.Semaphore(self.slots)
        tasks = []
        for i in range(self.count):
            probed = idle is None
            while (wait := self.due[i] - self.clock()) > 0:
                if not probed and not self.in_flight and wait > idle_min_s:
                    idle()
                    probed = True
                    continue
                # Until the probe has run, wake up often enough to catch
                # the moment the last request completes.
                await self.sleep(wait if probed else min(wait, idle_min_s / 2))
            await free.acquire()
            self.sent[i] = self.clock()
            self.in_flight += 1
            tasks.append(asyncio.ensure_future(self._one(i, send, free)))
            await asyncio.sleep(0)  # let the send start before pacing on
        await asyncio.gather(*tasks)

    async def _one(self, i: int, send, free: asyncio.Semaphore) -> None:
        try:
            self.outcome[i] = await send(i)
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            self.outcome[i] = exc
        finally:
            self.done[i] = self.clock()
            self.in_flight -= 1
            free.release()

    def latencies(self) -> List[float]:
        """Seconds from each request's due time to its response."""
        return [d - t for d, t in zip(self.done, self.due)]

    def lateness(self) -> List[float]:
        """Seconds each request was sent after its due time."""
        return [s - t for s, t in zip(self.sent, self.due)]

