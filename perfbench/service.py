"""The service under test as a child process, and the load that drives it.

The server runs as ``python -m repro.cli serve`` in its own process, so
its CPU time and peak memory are read from ``/proc/<pid>`` apart from the
load generator, and the two never share an interpreter lock.  The load
generator is one asyncio process driving the public
:class:`~repro.service.client.AsyncServiceClient`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.observability.tracing import new_trace_id
from repro.service.client import AsyncServiceClient, ServiceError

from inputs import Publication, PublishInputs, oracle

DESIGN = "bench"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile over every sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def metric(value: float, unit: str) -> dict:
    """One entry of the printed ``metrics`` object."""
    return {"value": value, "unit": unit}


def memory_mb(pid="self", field: str = "VmHWM") -> float:
    """A memory figure of a process from ``/proc/<pid>/status`` (peak RSS by default)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(f"{field}:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc status")


class ChildServer:
    """``repro-design serve`` in a child process, on an ephemeral port."""

    def __init__(self, root: Path, argv: list[str], boot_timeout: float = 60.0) -> None:
        env = dict(os.environ)
        # The child picks its validation backend from its own defaults,
        # never from the caller's environment.
        env.pop("REPRO_BACKEND", None)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self._stderr: list[bytes] = []
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        ready, _, _ = select.select([self.process.stdout], [], [], boot_timeout)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError(f"the service did not announce its port: {self.stderr()}")
        self.port = int(json.loads(line)["port"])

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            if len(self._stderr) < 200:
                self._stderr.append(line)

    def stderr(self) -> str:
        return b"".join(self._stderr).decode(errors="replace")[-2000:]

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the child, all threads."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        return memory_mb(self.process.pid)

    def stop(self) -> None:
        """Ask for a graceful close, then make sure the process has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.process.stdout.close()
        self._drain.join(timeout=20)
        self.process.stderr.close()


async def register(port: int, inputs: PublishInputs) -> None:
    client = await AsyncServiceClient.connect("127.0.0.1", port)
    try:
        kernel, schemas, documents = inputs.register_args()
        await client.register_design(DESIGN, kernel, schemas, documents, replace=True)
    finally:
        await client.close()


@dataclass
class LoadResult:
    """What one load phase sent, how long it took and what went wrong."""

    sent: list[Publication] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    errors: int = 0
    mismatches: int = 0
    error_codes: dict = field(default_factory=dict)
    #: Closed loop: successful replies that arrived before the deadline
    #: (the drain after it, with the window no longer full, is left out of
    #: throughput), and the server's CPU seconds for the whole phase, drain
    #: included (with a ``cpu`` reader), to divide by every reply.
    in_time: int = 0
    cpu_seconds: float = 0.0
    #: ``perf_counter`` times: a closed loop's start and last reply; each
    #: open-loop request's due time (in step with ``latencies_ms``).
    began: float = 0.0
    finished: float = 0.0
    dues: list[float] = field(default_factory=list)
    #: Trace ids minted for the publications of a traced phase.
    trace_ids: list[str] = field(default_factory=list)
    #: Per connection, how far into its share of the items a closed loop got.
    positions: list[int] = field(default_factory=list)


class _Lanes:
    """Connections with every function pinned to one of them.

    A peer's publications always travel on the same connection, so the
    server ingests them in the order they were sent.  Chunked streams
    additionally hold a per-function lock: one open stream per peer.
    """

    def __init__(self, clients: list[AsyncServiceClient], functions, chunk_bytes: Optional[int]):
        self.clients = clients
        self.lane_of = {f: i % len(clients) for i, f in enumerate(sorted(functions))}
        self.chunk_bytes = chunk_bytes
        self.locks = {f: asyncio.Lock() for f in functions}

    async def publish(self, item: Publication, trace_id: Optional[str]) -> dict:
        client = self.clients[self.lane_of[item.function]]
        if self.chunk_bytes is None:
            return await client.publish(DESIGN, item.function, item.payload, trace_id=trace_id)
        async with self.locks[item.function]:
            return await client.publish_stream(
                DESIGN, item.function, item.payload,
                chunk_bytes=self.chunk_bytes, trace_id=trace_id,
            )


async def _connect(port: int, count: int) -> list[AsyncServiceClient]:
    return list(
        await asyncio.gather(
            *(AsyncServiceClient.connect("127.0.0.1", port) for _ in range(count))
        )
    )


async def _close(clients: list[AsyncServiceClient]) -> None:
    for client in clients:
        await client.close()


def _mint(result: LoadResult, trace: bool) -> Optional[str]:
    if not trace:
        return None
    trace_id = new_trace_id()
    result.trace_ids.append(trace_id)
    return trace_id


def _settle(result: LoadResult, item: Publication, reply) -> None:
    """Check one reply against the verdict the publication should get."""
    if isinstance(reply, ServiceError):
        result.errors += 1
        result.error_codes[reply.code] = result.error_codes.get(reply.code, 0) + 1
    elif reply.get("peer_valid") is not item.valid:
        result.mismatches += 1


async def closed_loop(
    port: int,
    items: list[Publication],
    seconds: float,
    connections: int,
    window: int,
    chunk_bytes: Optional[int] = None,
    trace: bool = False,
    resume: Optional[LoadResult] = None,
    cpu: Optional[Callable[[], float]] = None,
    limit: Optional[int] = None,
) -> LoadResult:
    """Each connection keeps ``window`` publications in flight until time is up.

    ``items`` is cycled if the run outlasts it; every publication sent is
    recorded (in per-peer send order) for the oracle.  ``resume``
    continues each connection where an earlier closed loop over the same
    items stopped.  ``cpu`` reads the server's CPU seconds.  ``limit``
    stops the loop after that many publications, if time is not up first.
    """
    result = LoadResult()
    functions = {item.function for item in items}
    clients = await _connect(port, connections)
    lanes = _Lanes(clients, functions, chunk_bytes)
    per_lane: list[list[Publication]] = [[] for _ in clients]
    for item in items:
        per_lane[lanes.lane_of[item.function]].append(item)
    result.positions = list(resume.positions) if resume else [0] * len(clients)
    cpu_start = cpu() if cpu is not None else 0.0
    started = time.perf_counter()
    deadline = started + seconds
    result.began = started

    async def one(item: Publication) -> None:
        try:
            reply = await lanes.publish(item, _mint(result, trace))
        except ServiceError as error:
            reply = error
        else:
            if time.perf_counter() < deadline:
                result.in_time += 1
        _settle(result, item, reply)

    async def drive(number: int, lane: list[Publication]) -> None:
        in_flight: set[asyncio.Task] = set()
        index = result.positions[number]
        while lane and time.perf_counter() < deadline and result.attempted != limit:
            if len(in_flight) >= window:
                _done, in_flight = await asyncio.wait(
                    in_flight, return_when=asyncio.FIRST_COMPLETED
                )
                continue
            item = lane[index % len(lane)]
            index += 1
            result.positions[number] = index
            result.sent.append(item)
            result.attempted += 1
            in_flight.add(asyncio.ensure_future(one(item)))
        if in_flight:
            await asyncio.wait(in_flight)

    try:
        await asyncio.gather(*(drive(number, lane) for number, lane in enumerate(per_lane)))
        result.finished = time.perf_counter()
        if cpu is not None:
            result.cpu_seconds = cpu() - cpu_start
    finally:
        await _close(clients)
    return result


async def warm_up(
    port: int, items: list[Publication], connections: int, spec: dict, chunk_bytes: Optional[int]
) -> LoadResult:
    """A closed loop of ``spec["warmup_publications"]`` publications (at most 60 s)."""
    return await closed_loop(
        port, items, 60.0, connections, spec["window"], chunk_bytes,
        limit=spec["warmup_publications"],
    )


async def open_loop(
    port: int,
    items: list[Publication],
    rate: float,
    seconds: float,
    connections: int,
    chunk_bytes: Optional[int] = None,
    trace: bool = False,
    start: int = 0,
) -> LoadResult:
    """Send on a fixed schedule of ``rate`` per second, whatever the replies.

    Latency is taken from each request's due time, so a stall also
    counts against the requests it delayed.  ``late_ms`` is how late the
    generator itself started each request.  ``start`` continues the
    cycle through ``items`` where an earlier open loop stopped.
    """
    result = LoadResult()
    functions = {item.function for item in items}
    clients = await _connect(port, connections)
    lanes = _Lanes(clients, functions, chunk_bytes)
    count = max(1, round(rate * seconds))
    tasks: list[asyncio.Task] = []

    async def one(item: Publication, due: float) -> None:
        result.late_ms.append(1000.0 * (time.perf_counter() - due))
        try:
            reply = await lanes.publish(item, _mint(result, trace))
        except ServiceError as error:
            reply = error
        result.latencies_ms.append(1000.0 * (time.perf_counter() - due))
        result.dues.append(due)
        _settle(result, item, reply)

    try:
        epoch = time.perf_counter()
        for index in range(count):
            due = epoch + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            item = items[(start + index) % len(items)]
            result.sent.append(item)
            result.attempted += 1
            tasks.append(asyncio.ensure_future(one(item, due)))
        await asyncio.gather(*tasks)
    finally:
        await _close(clients)
    return result


async def _final_state(port: int) -> tuple[dict, Optional[bool]]:
    client = await AsyncServiceClient.connect("127.0.0.1", port)
    try:
        verdict = await client.revalidate(DESIGN)
        stats = await client.stats()
    finally:
        await client.close()
    return stats["designs"][DESIGN]["acks"], verdict.get("valid")


def check_final_state(port: int, inputs: PublishInputs, sent: list[Publication], outcome) -> None:
    """Compare the per-peer acks and the ``revalidate`` verdict with the serial oracle."""
    acks, verdict = asyncio.run(_final_state(port))
    expected_acks, expected_verdict = oracle(inputs, sent)
    if acks != expected_acks:
        outcome.problems.append(f"per-peer acks {acks} != oracle {expected_acks}")
    if verdict is not expected_verdict:
        outcome.problems.append(f"global verdict {verdict} != oracle {expected_verdict}")
