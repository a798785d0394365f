"""Single-process asyncio HTTP load generator for the serving windows.

Open loop: requests follow a precomputed arrival schedule and are timed
from when each was *due*, so a server stall also charges the requests
queued behind it.  Closed loop: each connection sends its next request
only after the previous reply.  Both use at most ``connections``
keep-alive sockets from this one process, and speak just enough
HTTP/1.1 (Content-Length bodies) to talk to ``python -m repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass


@dataclass
class Reply:
    """One request as the client saw it (``perf_counter`` seconds)."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: dict


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.writer.write(head + body)
        await self.writer.drain()
        header = await self.reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length) if length else b""
        return status, data


def _decode(data: bytes) -> dict:
    try:
        value = json.loads(data)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


async def open_loop(
    host: str,
    port: int,
    path: str,
    bodies: list[bytes],
    offsets: list[float],
    connections: int,
    actions: Sequence[tuple[float, Callable[[], None]]] = (),
) -> tuple[list[Reply], list[float]]:
    """Send ``bodies[i]`` due at ``start + offsets[i]``.

    ``actions`` are ``(offset, callable)`` pairs run (in a worker
    thread, so the loop keeps sending) when their offset comes due --
    the benchmark uses them to replace the served artifact mid-phase.
    Returns the replies in schedule order and, per request, how late
    the generator put it on the send queue (seconds).
    """
    conns = [Connection(host, port) for _ in range(connections)]
    for conn in conns:
        await conn.open()
    queue: asyncio.Queue = asyncio.Queue()
    replies: list[Reply | None] = [None] * len(bodies)
    lags = [0.0] * len(bodies)
    loop = asyncio.get_running_loop()

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent = time.perf_counter()
            status, data = await conn.request("POST", path, bodies[index])
            replies[index] = Reply(
                index, due, sent, time.perf_counter(), status, _decode(data)
            )

    workers = [asyncio.create_task(worker(conn)) for conn in conns]
    pending_actions = sorted(actions, key=lambda a: a[0])
    action_tasks = []
    start = time.perf_counter() + 0.05
    for index, offset in enumerate(offsets):
        due = start + offset
        while pending_actions and pending_actions[0][0] <= offset:
            _, action = pending_actions.pop(0)
            action_tasks.append(loop.run_in_executor(None, action))
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags[index] = max(0.0, time.perf_counter() - due)
        queue.put_nowait((index, due))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    await asyncio.gather(*action_tasks)
    for conn in conns:
        await conn.close()
    return replies, lags


async def closed_loop(
    host: str,
    port: int,
    path: str,
    bodies: list[bytes],
    connections: int,
    seconds: float,
    start: int = 0,
) -> list[Reply]:
    """Each connection cycles through ``bodies`` until ``seconds`` pass.

    Request ``i`` sends ``bodies[i % len(bodies)]``, numbering from
    ``start`` so consecutive calls continue the cycle.
    """
    conns = [Connection(host, port) for _ in range(connections)]
    for conn in conns:
        await conn.open()
    replies: list[Reply] = []
    stop_at = time.perf_counter() + seconds
    counter = iter(range(start, 1 << 62))

    async def worker(conn: Connection) -> None:
        while time.perf_counter() < stop_at:
            index = next(counter)
            sent = time.perf_counter()
            status, data = await conn.request(
                "POST", path, bodies[index % len(bodies)]
            )
            replies.append(Reply(
                index, sent, sent, time.perf_counter(), status, _decode(data)
            ))

    await asyncio.gather(*(worker(conn) for conn in conns))
    for conn in conns:
        await conn.close()
    replies.sort(key=lambda r: r.index)
    return replies
