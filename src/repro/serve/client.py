"""A minimal asyncio client for the serve API (bench, tests, CI).

Zero dependencies, mirroring the server: raw ``asyncio`` streams, one
request per connection.  This is not a general HTTP client — it speaks
exactly the dialect :mod:`repro.serve.server` emits (``Connection:
close``, JSON bodies, ``data:``-only SSE frames).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Optional, Tuple


async def _request(
    host: str, port: int, method: str, path: str,
    body: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One request/response exchange; returns ``(status, json_body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = b"" if body is None else json.dumps(body).encode()
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {host}:{port}",
                 "Connection: close",
                 f"Content-Length: {len(data)}"]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        payload = await reader.read()
        return status, json.loads(payload.decode() or "null")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def submit_job(
    host: str, port: int, job: Dict[str, Any], wait: bool = True,
) -> Tuple[int, Dict[str, Any]]:
    """POST a job; ``wait=True`` blocks until the result document."""
    path = "/v1/jobs" + ("?wait=1" if wait else "")
    return await _request(host, port, "POST", path, body=job)


async def get_job(host: str, port: int,
                  job_id: str) -> Tuple[int, Dict[str, Any]]:
    """GET one job's status + result."""
    return await _request(host, port, "GET", f"/v1/jobs/{job_id}")


async def get_stats(host: str, port: int) -> Dict[str, Any]:
    """GET the serving counters."""
    _status, body = await _request(host, port, "GET", "/v1/stats")
    return body


async def stream_events(
    host: str, port: int, job_id: str, max_events: Optional[int] = None,
) -> AsyncIterator[Dict[str, Any]]:
    """Yield a job's SSE events until the stream closes (job finished).

    ``max_events`` stops early (the CI smoke test reads just enough to
    prove the bridge works without waiting out a long job).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        seen = 0
        while True:
            line = await reader.readline()
            if not line:
                return
            line = line.strip()
            if not line.startswith(b"data: "):
                continue
            yield json.loads(line[len(b"data: "):].decode())
            seen += 1
            if max_events is not None and seen >= max_events:
                return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
