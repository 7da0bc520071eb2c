"""Server child: builds one served workload's stack and serves it over TCP.

``python -m repro.net`` cannot choose the index family, replication or
a WAL, so the benchmark builds the stack itself through public APIs:
``TenantSpec`` -> ``TenantDirectory`` -> ``NetServer``.  Run as::

    python3 perfbench/launcher.py '<json config>'

with the config keys ``workload``, ``seed``, ``scale``, ``traced`` and
``tmp`` (a directory for the run's WALs, inside the checkout).

Protocol with the parent, over stdout and signals:

* prints ``READY <port>`` once the directory is built and the server
  listens;
* SIGUSR1 starts a measurement window (traced children only);
* SIGUSR2 ends it and prints ``TABLE <json>``, the per-layer metrics;
* SIGTERM stops the server, closes every shard group and deletes the
  WAL directory, then exits 0.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import common  # noqa: F401  (puts the checkout's src/ on sys.path)
from repro.net.server import NetServer
from repro.net.tenancy import TenantDirectory, TenantSpec

import shims
from workloads import WORKLOADS, preload_keys, preload_value, scaled, tenant_name


def build_directory(config: dict, wal_root: Path) -> TenantDirectory:
    workload = scaled(WORKLOADS[config["workload"]], config["scale"])
    keys = preload_keys(config["seed"], workload.keys_per_tenant)
    specs = [
        TenantSpec(
            name=tenant_name(t),
            num_shards=workload.shards,
            family=workload.family,
            partitioning="hash",
            pairs=[(key, preload_value(key, t)) for key in keys],
            replication_factor=workload.replication_factor,
        )
        for t in range(workload.tenants)
    ]
    return TenantDirectory(specs, durability_root=wal_root if workload.wal else None)


async def serve(directory: TenantDirectory, traced: bool) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    server = NetServer(directory, host="127.0.0.1", port=0)
    await server.start()
    restore = None
    if traced:
        routers = [directory.router_for(name) for name in directory.tenants()]
        managers, logs = shims.managers_and_logs(routers)
        recorder = shims.Recorder(managers, logs, server.coalescer)
        restore = shims.install(recorder, routers)

        def dump() -> None:
            print("TABLE " + json.dumps(recorder.table()), flush=True)

        loop.add_signal_handler(signal.SIGUSR1, recorder.reset)
        loop.add_signal_handler(signal.SIGUSR2, dump)
    print(f"READY {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()
        if restore is not None:
            restore()


def main() -> int:
    config = json.loads(sys.argv[1])
    wal_root = Path(tempfile.mkdtemp(prefix="wal-", dir=config["tmp"]))
    try:
        directory = build_directory(config, wal_root)
        try:
            asyncio.run(serve(directory, config["traced"]))
        finally:
            directory.close()
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
