"""Client-side load: a closed loop for capacity, an open loop for latency.

One process, one asyncio loop, at most two ``NetClient`` connections.

* **Closed loop** — ``window`` requests are always outstanding; each
  worker sends its next request when the previous one is answered, so
  completions per second is the capacity at that window.
* **Open loop** — requests are due at Poisson arrival times of a fixed
  rate, whatever the server does.  Latency is timed from the due time,
  so a stall also delays the requests queued behind it, and the gap
  between due and actual send is reported as send lag.

Every answer goes through the :class:`~checker.Oracle`; a missing
reply, an error or a wrong answer counts as failed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.client import NetClient, NetError
from repro.net.protocol import OP_GET, OP_PUT, OP_SCAN, ProtocolError

from checker import Oracle
from common import metric, percentile, window_percentile, window_rate
from workloads import GET, PUT, SCAN, Op, RequestStream, poisson_offsets, tenant_name

now = time.perf_counter

_OPCODES = {GET: OP_GET, PUT: OP_PUT, SCAN: OP_SCAN}
#: How long answers may still arrive after a phase's last send.
GRACE_S = 10.0
#: Closed-loop time left out of the throughput windows while queues fill.
WARMUP_S = 1.0
#: Leading share of an open-loop phase left out of its latency figures.
WARMUP_FRACTION = 0.1


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class ClosedResult(Tally):
    """Completion times of one closed-loop phase, on the ``now()`` clock."""

    start: float = 0.0
    deadline: float = 0.0
    completions: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        warmup = min(WARMUP_S, (self.deadline - self.start) / 4)
        return window_rate(self.completions, self.start + warmup, self.deadline)


@dataclass
class OpenResult(Tally):
    """Latency samples of one open-loop phase: (due offset, kind, seconds)."""

    seconds: float = 0.0
    samples: List[Tuple[float, str, float]] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)

    def p50_ms(self, kind: Optional[str] = None) -> float:
        """The median over one-second windows of each window's p50."""
        picked = [(due, latency) for due, k, latency in self.samples
                  if kind is None or k == kind]
        return window_percentile(picked, self.seconds * WARMUP_FRACTION, self.seconds, 50) * 1e3

    def pooled_ms(self, q: float, kind: Optional[str] = None) -> float:
        """The ``q``-th percentile over the whole measured phase."""
        picked = [latency for _, k, latency in self.samples if kind is None or k == kind]
        return percentile(picked, q) * 1e3 if picked else 0.0

    def pooled_mean_ms(self) -> float:
        picked = [latency for _, _, latency in self.samples]
        return sum(picked) / len(picked) * 1e3

    def count(self, kind: Optional[str] = None) -> int:
        return sum(1 for _, k, _ in self.samples if kind is None or k == kind)


def end_to_end(setup_s: float, throughput: float, rss_mb: float,
               bytes_per_key: float) -> Dict[str, dict]:
    """The end-to-end metrics every workload reports, by name and unit."""
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_ops": metric(throughput, "ops/s"),
        "rss_mb": metric(rss_mb, "MiB"),
        "index_bytes_per_key": metric(bytes_per_key, "B/key"),
    }


def latency_layers(low: OpenResult, high: OpenResult) -> Dict[str, float]:
    """Open-loop latency at the two fixed rates, and the generator's lag.

    These are per-layer (ungated) figures: measured on a 2-vCPU virtual
    machine, their run-to-run spread is wider than any bound a gate may use.
    """
    return {
        "loadgen.lat_p50_ms.low": low.p50_ms(),
        "loadgen.lat_p99_ms.low": low.pooled_ms(99),
        "loadgen.lat_p50_ms.high": high.p50_ms(),
        "loadgen.lat_p99_ms.high": high.pooled_ms(99),
        "loadgen.lat_p50_ms.high.get": high.p50_ms(GET),
        "loadgen.lat_p50_ms.high.put": high.p50_ms(PUT),
        "loadgen.lat_p50_ms.high.scan": high.p50_ms(SCAN) if high.count(SCAN) else 0.0,
        "loadgen.send_lag_ms.p99": percentile(high.lags, 99) * 1e3,
    }


class Driver:
    """Sends checked requests over a fixed set of connections."""

    def __init__(self, clients: Sequence[NetClient], oracle: Oracle) -> None:
        self.clients = list(clients)
        self.oracle = oracle
        self._tenants = [tenant_name(t) for t in range(oracle.tenants)]

    async def send(self, slot: int, op: Op):
        """The response to ``op``, or None when none arrived."""
        client = self.clients[slot % len(self.clients)]
        try:
            if op.kind == PUT:
                return await client.request(
                    OP_PUT, self._tenants[op.tenant], key=op.key, value=op.arg
                )
            return await client.request(
                _OPCODES[op.kind], self._tenants[op.tenant], key=op.key, num=op.arg
            )
        except (NetError, ProtocolError):
            return None

    async def checked(self, slot: int, op: Op, sent: float) -> tuple:
        """Send ``op`` and check the answer; returns ``(ok, answered_at)``."""
        write = self.oracle.issue(op, sent)
        response = await self.send(slot, op)
        answered = now()
        return self.oracle.check(op, response, answered, write), answered


async def closed_loop(
    driver: Driver, stream: RequestStream, window: int, seconds: float
) -> ClosedResult:
    """Keep ``window`` requests outstanding for ``seconds``."""
    start = now()
    result = ClosedResult(start=start, deadline=start + seconds)
    deadline = result.deadline

    async def worker(slot: int) -> None:
        while True:
            sent = now()
            if sent >= deadline:
                return
            op = stream.next()
            result.attempted += 1
            ok, answered = await driver.checked(slot, op, sent)
            if not ok:
                result.failed += 1
            else:
                result.completions.append(answered)

    tasks = [asyncio.ensure_future(worker(slot)) for slot in range(window)]
    _, stuck = await asyncio.wait(tasks, timeout=seconds + GRACE_S)
    for task in stuck:
        task.cancel()
    result.failed += len(stuck)
    await asyncio.gather(*tasks, return_exceptions=True)
    return result


async def open_loop(
    driver: Driver, stream: RequestStream, rate: float, seconds: float,
    seed: int, stream_id: int,
) -> OpenResult:
    """Send at Poisson arrival times of ``rate``/s for ``seconds``."""
    result = OpenResult(seconds=seconds)
    offsets = poisson_offsets(seed, stream_id, rate, seconds)
    begin = now() + 0.005
    tasks: set = set()

    async def one(slot: int, op: Op, due: float) -> None:
        sent = now()
        ok, answered = await driver.checked(slot, op, sent)
        if not ok:
            result.failed += 1
        else:
            result.samples.append((due - begin, op.kind, answered - due))
            result.lags.append(sent - due)

    for slot, offset in enumerate(offsets.tolist()):
        due = begin + offset
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        result.attempted += 1
        task = asyncio.ensure_future(one(slot, stream.next(), due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        _, stuck = await asyncio.wait(set(tasks), timeout=GRACE_S)
        for task in stuck:
            task.cancel()
        result.failed += len(stuck)
        await asyncio.gather(*stuck, return_exceptions=True)
    return result


async def readback(driver: Driver, batch: int = 64) -> Tally:
    """Read every written key back; it must hold the last acked write."""
    tally = Tally()
    written = driver.oracle.written()
    for offset in range(0, len(written), batch):
        chunk = written[offset : offset + batch]
        responses = await asyncio.gather(
            *(
                driver.send(slot, Op(GET, tenant, key))
                for slot, (tenant, key) in enumerate(chunk)
            )
        )
        for (tenant, key), response in zip(chunk, responses):
            tally.attempted += 1
            if not driver.oracle.check_readback(tenant, key, response):
                tally.failed += 1
    return tally
