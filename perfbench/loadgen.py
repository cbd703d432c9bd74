"""Open-loop HTTP load generator over a few keep-alive connections.

Requests follow a fixed schedule of due times.  A dispatcher releases
each request at its due time into a queue; ``connections`` workers, each
owning one keep-alive connection, take requests from the queue in due
order.  Latency is timed from the due time, so a stall in the server
also charges the wait it imposes on the requests queued behind it.
How late the dispatcher itself released requests is recorded apart, so
a run where the generator fell behind is visible and not blamed on the
server.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Request:
    method: str
    path: str
    payload: Optional[dict]
    #: Offset of the due time from the start of the phase, in seconds.
    due: float
    #: Caller's label (e.g. the pool index of the query).
    tag: object = None


@dataclass
class Outcome:
    request: Request
    due: float = 0.0
    released: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    status: int = 0
    raw: bytes = b""
    error: Optional[str] = None

    @functools.cached_property
    def body(self) -> Optional[dict]:
        """The decoded JSON response (parsed after the phase, not in it)."""
        try:
            return json.loads(self.raw) if self.raw else None
        except ValueError:
            return None

    @property
    def latency_ms(self) -> float:
        """From due time to the last byte of the response."""
        return (self.received - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        """How late the dispatcher released the request."""
        return (self.released - self.due) * 1000.0


@dataclass
class Phase:
    outcomes: list[Outcome] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None

    async def exchange(self, wire: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        assert self.reader is not None and self.writer is not None
        self.writer.write(wire)
        await self.writer.drain()
        header_block = await self.reader.readuntil(b"\r\n\r\n")
        lines = header_block.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        keep_alive = True
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        raw = await self.reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, raw


def _encode(request: Request, host: str, port: int, request_id: str) -> bytes:
    body = json.dumps(request.payload).encode() if request.payload is not None else b""
    head = (
        f"{request.method} {request.path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"X-Request-Id: {request_id}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _run(
    host: str, port: int, schedule: list[Request], connections: int, timeout: float
) -> Phase:
    queue: asyncio.Queue = asyncio.Queue()
    phase = Phase()
    pool = [_Connection(host, port) for _ in range(connections)]
    for connection in pool:
        await connection.open()

    async def worker(connection: _Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            wire, outcome = item
            outcome.sent = time.monotonic()
            try:
                outcome.status, outcome.raw = await asyncio.wait_for(
                    connection.exchange(wire), timeout
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError, IndexError) as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
                await connection.close()
            outcome.received = time.monotonic()

    wires = [_encode(request, host, port, str(index)) for index, request in enumerate(schedule)]
    workers = [asyncio.ensure_future(worker(connection)) for connection in pool]
    phase.started = time.monotonic() + 0.05
    for wire, request in zip(wires, schedule):
        due = phase.started + request.due
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(request=request, due=due, released=time.monotonic())
        phase.outcomes.append(outcome)
        queue.put_nowait((wire, outcome))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    phase.ended = time.monotonic()
    for connection in pool:
        await connection.close()
    return phase


def run_schedule(
    host: str,
    port: int,
    schedule: list[Request],
    *,
    connections: int,
    timeout: float = 60.0,
) -> Phase:
    """Play *schedule* against the server and return every outcome.

    The generator's own garbage collector is paused for the phase: a
    full collection over the outcome list would stall the dispatcher and
    show up as server latency.
    """
    gc.collect()
    gc.disable()
    try:
        # The generator must not queue behind the server it measures.
        os.nice(-10)
    except PermissionError:
        pass
    try:
        return asyncio.run(_run(host, port, schedule, connections, timeout))
    finally:
        gc.enable()


def fixed_rate(count: int, rate: float) -> list[float]:
    """Due offsets of *count* requests evenly spaced at *rate* per second."""
    return [index / rate for index in range(count)]
