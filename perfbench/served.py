"""The served workloads: a server child driven from this process.

``measure`` (untraced) reports the end-to-end metrics; ``trace`` runs
an untraced child and a traced one and reports the per-layer table.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import ROOT, TMP, cpu_seconds, median, peak_rss_mb
from repro.net.client import NetClient

from checker import Oracle
from loadgen import (
    ClosedResult, Driver, OpenResult, Tally, closed_loop, end_to_end, latency_layers, open_loop,
    readback,
)
from workloads import CONNECTIONS, RequestStream, ServedWorkload, preload_keys

now = time.perf_counter

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
#: Children spawned per run to take the median set-up time.
SETUP_SPAWNS = 7
SPAWN_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
#: Stream ids: one deterministic request stream per phase.
CLOSED, LOW, HIGH = 0, 1, 2


class ServerChild:
    """One launcher process and the connections to it."""

    def __init__(self, proc: asyncio.subprocess.Process, clients: List[NetClient],
                 setup_s: float) -> None:
        self.proc = proc
        self.clients = clients
        self.setup_s = setup_s

    @classmethod
    async def start(cls, workload: ServedWorkload, seed: int, scale: float,
                    traced: bool, tmp: Path) -> "ServerChild":
        config = {
            "workload": workload.name, "seed": seed, "scale": scale,
            "traced": traced, "tmp": str(tmp),
        }
        started = now()
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(LAUNCHER), json.dumps(config),
            stdout=asyncio.subprocess.PIPE, cwd=str(ROOT),
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), SPAWN_TIMEOUT_S)
            if not line.startswith(b"READY "):
                raise RuntimeError(f"server child did not start: {line!r}")
            port = int(line.split()[1])
            first = await NetClient.connect("127.0.0.1", port)
            await first.ping()
            setup_s = now() - started
            clients = [first]
            for _ in range(CONNECTIONS - 1):
                clients.append(await NetClient.connect("127.0.0.1", port))
        except BaseException:
            await _terminate(proc)
            raise
        return cls(proc, clients, setup_s)

    async def layer_table(self, signum: int) -> Optional[Dict[str, float]]:
        """Start (SIGUSR1) or end (SIGUSR2) the traced child's window."""
        self.proc.send_signal(signum)
        if signum != signal.SIGUSR2:
            return None
        line = await asyncio.wait_for(self.proc.stdout.readline(), STOP_TIMEOUT_S)
        if not line.startswith(b"TABLE "):
            raise RuntimeError(f"traced child sent no table: {line!r}")
        return json.loads(line[len(b"TABLE "):])

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        await _terminate(self.proc)


async def _terminate(proc: asyncio.subprocess.Process) -> None:
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(proc.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"server child exited with {proc.returncode}")


class _Run:
    """State shared by the phases of one served run."""

    def __init__(self, workload: ServedWorkload, seed: int, scale: float, seconds: float):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.tally = Tally()
        self.errors: List[str] = []
        TMP.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="run-", dir=str(TMP))
        self.tmp = Path(self._tmp.name)

    def spawn(self, traced: bool = False):
        return ServerChild.start(self.workload, self.seed, self.scale, traced, self.tmp)

    def driver(self, child: ServerChild) -> Driver:
        keys = preload_keys(self.seed, self.workload.keys_per_tenant)
        return Driver(child.clients, Oracle(keys, self.workload.tenants))

    async def closed(self, driver: Driver, share: float) -> ClosedResult:
        result = await closed_loop(
            driver, RequestStream(self.workload, self.seed, CLOSED),
            self.workload.window, self.seconds * share,
        )
        self.tally.add(result)
        return result

    async def open(self, driver: Driver, rate: float, stream_id: int, share: float) -> OpenResult:
        result = await open_loop(
            driver, RequestStream(self.workload, self.seed, stream_id), rate,
            self.seconds * share, self.seed, stream_id,
        )
        self.tally.add(result)
        return result

    async def finish(self, driver: Driver) -> None:
        self.tally.add(await readback(driver))
        self.errors.extend(driver.oracle.errors)

    def close(self) -> None:
        self._tmp.cleanup()


async def _bytes_per_key(child: ServerChild) -> float:
    stats = await child.clients[0].stats()
    tenants = stats["tenants"].values()
    return sum(t["size_bytes"] for t in tenants) / sum(t["num_keys"] for t in tenants)


async def measure(workload: ServedWorkload, seed: int, seconds: float, scale: float = 1.0):
    """End-to-end metrics of one served workload (tracing off)."""
    run = _Run(workload, seed, scale, seconds)
    try:
        setups = []
        for _ in range(SETUP_SPAWNS - 1):
            child = await run.spawn()
            setups.append(child.setup_s)
            await child.stop()
        child = await run.spawn()
        setups.append(child.setup_s)
        try:
            driver = run.driver(child)
            closed = await run.closed(driver, 1.0)
            await run.finish(driver)
            bytes_per_key = await _bytes_per_key(child)
            rss_mb = peak_rss_mb(child.proc.pid)
        finally:
            await child.stop()
    finally:
        run.close()
    metrics = end_to_end(median(setups), closed.throughput, rss_mb, bytes_per_key)
    return metrics, run.tally, run.errors, {"closed-loop completions": len(closed.completions)}


async def trace(workload: ServedWorkload, seed: int, seconds: float, scale: float = 1.0):
    """Per-layer metrics: an untraced child, then a traced one.

    The untraced child gives the open-loop latencies at both fixed rates
    and the server's CPU per request; the traced child repeats the
    closed loop (for the tracing overhead) and the high-rate phase, over
    which the shims measure every layer.
    """
    run = _Run(workload, seed, scale, seconds)
    try:
        child = await run.spawn()
        try:
            driver = run.driver(child)
            plain = await run.closed(driver, 0.2)
            low = await run.open(driver, workload.rate_low, LOW, 0.2)
            cpu_before = cpu_seconds(child.proc.pid)
            high = await run.open(driver, workload.rate_high, HIGH, 0.2)
            cpu_ms_per_kop = (cpu_seconds(child.proc.pid) - cpu_before) * 1e6 / high.attempted
            await run.finish(driver)
        finally:
            await child.stop()
        child = await run.spawn(traced=True)
        try:
            driver = run.driver(child)
            traced = await run.closed(driver, 0.2)
            await child.layer_table(signal.SIGUSR1)
            traced_high = await run.open(driver, workload.rate_high, HIGH, 0.2)
            table = await child.layer_table(signal.SIGUSR2)
            await run.finish(driver)
        finally:
            await child.stop()
    finally:
        run.close()
    client_ms = traced_high.pooled_mean_ms()
    attributed_ms = table.pop("_attributed_ms_per_request")
    table.pop("_index_s")
    layers = dict(table)
    layers.update(latency_layers(low, high))
    layers.update({
        "server.cpu_ms_per_kop": cpu_ms_per_kop,
        "throughput_ops.post_shift": 0.0,
        "trace.residual_frac": (client_ms - attributed_ms) / client_ms,
        "trace.overhead_frac": 1.0 - traced.throughput / plain.throughput,
    })
    notes = {"latency samples low/high/traced": f"{low.count()}/{high.count()}/{traced_high.count()}"}
    return layers, run.tally, run.errors, notes
