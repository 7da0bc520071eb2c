"""Durability bench (PR 6).

Measures what the write-ahead log actually costs on the ``put_many``
path and what recovery actually costs per WAL frame, then writes the
machine-readable ``BENCH_PR6.json`` at the repo root:

* **sustained write throughput** under three durability modes — WAL
  off, WAL with group commit (one buffered write per batch, no fsync),
  and WAL with one fsync per batch.  The headline gate: group commit
  must retain **>= 50%** of the no-WAL write throughput (the whole
  point of batching the commit);
* **recovery time vs WAL-tail length** — how long
  :meth:`ShardRouter.recover` takes as the un-checkpointed tail grows,
  reported as frames/second of replay.

In the disk-resident cost-model vocabulary (PAPERS.md: updatable
learned indexes on disk, AirIndex's storage-profile tuning): the WAL
charges every write batch one sequential-write I/O (plus an fsync
barrier under ``"batch"``), checkpoints charge one full-shard
sequential write amortized over the checkpoint interval, and recovery
charges one sequential read of snapshot + tail — numbers this bench
reports honestly rather than assumes.

The records (see ``records.py``) gate the group-commit retention at
>= 50% on every run, and with ``--check`` every mode's *ratio* (mode /
no-WAL) against the baseline — ratios are stable across machines;
absolute ops/sec are reported alongside.

``--crash-campaign N`` additionally runs the crash-recovery fault
campaign at N injected crashes (see
``repro.harness.experiments_durability``); its lost and phantom write
counts are records bounded at zero.

Run directly::

    PYTHONPATH=src python benchmarks/bench_durability.py --keys 40000
    PYTHONPATH=src python benchmarks/bench_durability.py \
        --keys 8000 --check BENCH_PR6.json --tolerance 0.30
    PYTHONPATH=src python benchmarks/bench_durability.py \
        --no-write --crash-campaign 120

or through pytest (reduced scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_durability.py -q
"""

import argparse
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.durability import DurabilityManager
from repro.harness.experiments_durability import experiment_crash_campaign
from repro.obs.slo import evaluate_checks, parse_check
from repro.service.router import ShardRouter

import records

DEFAULT_KEYS = 40_000
BATCH_SIZE = 500
GROUP_COMMIT_RETENTION_REQUIRED = 0.50
REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_PR6.json"

#: (mode key, DurabilityManager sync policy or None for WAL off).
MODES = (
    ("wal_off", None),
    ("wal_group_commit", "none"),
    ("wal_fsync_per_batch", "batch"),
)

#: Retention drift-record metric per write mode.
RETENTION_METRICS = {
    "wal_off": "wal_off_retention",
    "wal_group_commit": "group_commit_retention",
    "wal_fsync_per_batch": "fsync_per_batch_retention",
}


def _timed_put_many(sync, num_writes, batch_size, family="olc"):
    """Wall-clock ops/sec of sustained ``put_many`` under one sync mode."""
    root = Path(tempfile.mkdtemp(prefix="repro-bench-durability-"))
    try:
        durability = None if sync is None else DurabilityManager(root / "store", sync=sync)
        initial = [(key, key) for key in range(4_000)]
        router = ShardRouter.build(
            initial,
            family=family,
            num_shards=4,
            partitioning="range",
            durability=durability,
        )
        base = len(initial)
        batches = [
            [(base + offset, offset) for offset in range(start, start + batch_size)]
            for start in range(0, num_writes, batch_size)
        ]
        begin = time.perf_counter()
        for batch in batches:
            router.put_many(batch)
        elapsed = time.perf_counter() - begin
        router.close()
        return num_writes / elapsed
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_throughput_bench(num_keys=DEFAULT_KEYS, batch_size=BATCH_SIZE):
    """The three-mode write sweep; returns mode -> ops/sec plus ratios."""
    modes = {}
    for mode_key, sync in MODES:
        modes[mode_key] = {"ops_per_sec": round(_timed_put_many(sync, num_keys, batch_size), 1)}
    baseline = modes["wal_off"]["ops_per_sec"]
    for mode_key, _sync in MODES:
        modes[mode_key]["retention_vs_wal_off"] = round(
            modes[mode_key]["ops_per_sec"] / baseline, 4
        )
    return modes


def run_recovery_bench(tail_lengths=(0, 4_000, 16_000), batch_size=BATCH_SIZE):
    """Recovery wall time as the un-checkpointed WAL tail grows."""
    rows = []
    for tail in tail_lengths:
        root = Path(tempfile.mkdtemp(prefix="repro-bench-recovery-"))
        try:
            durability = DurabilityManager(root / "store", sync="none")
            initial = [(key, key) for key in range(4_000)]
            router = ShardRouter.build(
                initial,
                family="olc",
                num_shards=4,
                partitioning="range",
                durability=durability,
            )
            router.checkpoint()  # the tail below is exactly what replay must cover
            base = len(initial)
            for start in range(0, tail, batch_size):
                router.put_many(
                    [(base + offset, offset) for offset in range(start, start + batch_size)]
                )
            router.close()
            begin = time.perf_counter()
            recovered = ShardRouter.recover(DurabilityManager(root / "store", sync="none"))
            elapsed = time.perf_counter() - begin
            summary = recovered.last_recovery or {}
            recovered.close()
            rows.append(
                {
                    "wal_tail_records": tail,
                    "recovery_seconds": round(elapsed, 4),
                    "frames_replayed": summary.get("frames_replayed", 0),
                    "replay_frames_per_sec": (
                        round(summary.get("frames_replayed", 0) / elapsed, 1)
                        if elapsed > 0
                        else 0.0
                    ),
                }
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return rows


def run_durability_bench(num_keys=DEFAULT_KEYS, batch_size=BATCH_SIZE):
    """Run both sweeps; returns the BENCH_PR6.json payload."""
    modes = run_throughput_bench(num_keys=num_keys, batch_size=batch_size)
    recovery = run_recovery_bench()
    payload = {
        "suite": "PR6 durability bench",
        "keys": num_keys,
        "batch_size": batch_size,
        "write_throughput": modes,
        "recovery": recovery,
        "headline": {
            "group_commit_retention": modes["wal_group_commit"]["retention_vs_wal_off"],
            "required": GROUP_COMMIT_RETENTION_REQUIRED,
        },
    }
    payload["records"] = headline_records(payload)
    return payload


def headline_records(payload):
    """Group commit keeps >= 50% of no-WAL writes, and every mode's drift."""
    headline = payload["headline"]
    rows = [
        records.record(
            "group_commit_retention",
            headline["group_commit_retention"],
            "frac",
            "wall",
            ">=",
            headline["required"],
        )
    ]
    for mode_key, stats in payload["write_throughput"].items():
        rows.append(
            records.record(
                RETENTION_METRICS[mode_key], stats["retention_vs_wal_off"], "frac", "wall", ">="
            )
        )
    return rows


def campaign_records(summary):
    """The crash campaign loses and fabricates no acknowledged write."""
    return [
        records.record("crash_campaign.crashes", summary["crashes"], "count", "wall"),
        records.record(
            "crash_campaign.lost_writes", summary["lost_writes"], "count", "wall", "==", 0
        ),
        records.record(
            "crash_campaign.phantom_writes", summary["phantom_writes"], "count", "wall", "==", 0
        ),
    ]


def format_report(payload):
    lines = [
        f"durability bench @ {payload['keys']} writes "
        f"(batches of {payload['batch_size']})"
    ]
    for mode_key, stats in payload["write_throughput"].items():
        lines.append(
            f"{mode_key:>20s}  {stats['ops_per_sec']:>12,.0f} ops/s  "
            f"({stats['retention_vs_wal_off']:.0%} of no-WAL)"
        )
    for row in payload["recovery"]:
        lines.append(
            f"recovery @ tail {row['wal_tail_records']:>6d}: "
            f"{row['recovery_seconds']:.3f}s "
            f"({row['replay_frames_per_sec']:,.0f} frames/s replayed)"
        )
    return "\n".join(lines)


@pytest.mark.perf
def test_durability_bench_headline():
    payload = run_durability_bench(num_keys=8_000)
    print(format_report(payload))
    assert not records.failures(payload["records"])


@pytest.mark.faults
def test_crash_campaign_smoke():
    summary = experiment_crash_campaign(
        num_crashes=25, num_keys=600, assert_coverage=False, seed=0xC4A5
    )
    assert summary["crashes"] >= 25
    assert summary["lost_writes"] == 0
    assert summary["phantom_writes"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Durability bench (PR 6).")
    parser.add_argument("--keys", type=int, default=DEFAULT_KEYS)
    parser.add_argument("--batch-size", type=int, default=BATCH_SIZE)
    records.add_arguments(parser, RESULT_FILE, 0.30)
    parser.add_argument(
        "--crash-campaign",
        type=int,
        default=0,
        metavar="N",
        help="also run the crash-recovery fault campaign with N injected crashes",
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="EXPR",
        help="objective over the crash-campaign summary, e.g. "
        "'lost_writes==0' or 'frames_replayed>0' (repeatable; fails the "
        "run on violation)",
    )
    args = parser.parse_args(argv)
    slo_checks = [parse_check(expression) for expression in args.slo]
    if slo_checks and args.crash_campaign <= 0:
        parser.error("--slo requires --crash-campaign N")
    payload = run_durability_bench(num_keys=args.keys, batch_size=args.batch_size)
    print(format_report(payload))
    if args.crash_campaign > 0:
        summary = experiment_crash_campaign(num_crashes=args.crash_campaign)
        print(
            f"crash campaign: {summary['crashes']} crashes over "
            f"{summary['rounds']} rounds "
            f"({summary['concurrent_crashes']} in concurrent rounds, "
            f"{summary['recovery_crashes']} during recovery itself), "
            f"{summary['torn_tails_recovered']} torn tails recovered, "
            f"{summary['frames_replayed']} frames replayed, "
            f"{summary['lost_writes']} lost acknowledged writes"
        )
        payload["crash_campaign"] = summary
        payload["records"] += campaign_records(summary)
        if slo_checks:
            values = {
                key: float(value)
                for key, value in summary.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            violations = evaluate_checks(values, slo_checks)
            for violation in violations:
                print(f"REGRESSION: {violation}")
            if violations:
                return 1
            print(f"slo ok: {len(slo_checks)} campaign check(s) passed")
    return records.finish(payload, args)


if __name__ == "__main__":
    raise SystemExit(main())
