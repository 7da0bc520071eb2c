"""Fault-injection campaign: the robustness layer under thousands of faults.

Not a paper figure.  Runs ``experiment_fault_campaign`` — mixed workloads
on every index family while migrations and (de)serialization raise
injected faults — and asserts the headline robustness claim: at least a
thousand faults fired, yet every structural invariant holds, no key was
lost or invented, and the manager surfaced the failures (retries,
quarantined units, adaptation disabling itself) through its event log.

Also runnable directly for a quick smoke pass::

    PYTHONPATH=src python benchmarks/bench_fault_campaign.py --faults 200
"""

import argparse

import pytest
from conftest import banner, run_once

from repro.harness.experiments import experiment_fault_campaign
from repro.harness.report import format_table

import records

FAULT_TARGET = 1_200


def campaign_records(result, fault_target):
    """Enough faults fired, nothing was damaged, and the manager noticed."""
    return [
        records.record(key, int(result[key]), unit, "wall", op, bound)
        for key, unit, op, bound in (
            ("total_faults", "count", ">=", fault_target),
            ("total_violations", "count", "==", 0),
            ("total_lost_keys", "count", "==", 0),
            ("quarantine_events", "count", ">=", 1),
            ("disable_events", "count", ">=", 1),
            ("degradation_campaign_degraded", "bool", "==", 1),
            ("degradation_campaign_quarantined", "count", ">=", 1),
        )
    ]


@pytest.mark.faults
def test_fault_campaign(benchmark):
    result = run_once(benchmark, lambda: experiment_fault_campaign(faults=FAULT_TARGET))
    print(banner("fault campaign: >= 1000 injected faults, zero damage"))
    print(format_table(result["headers"], result["rows"]))
    print(
        f"total faults {result['total_faults']}, "
        f"violations {result['total_violations']}, "
        f"lost keys {result['total_lost_keys']}, "
        f"quarantine events {result['quarantine_events']}, "
        f"disable events {result['disable_events']}"
    )
    assert not records.failures(campaign_records(result, FAULT_TARGET))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the fault-injection campaign without pytest."
    )
    parser.add_argument(
        "--faults",
        type=int,
        default=FAULT_TARGET,
        help=f"minimum number of injected faults (default {FAULT_TARGET})",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = experiment_fault_campaign(faults=args.faults, seed=args.seed)
    print(format_table(result["headers"], result["rows"]))
    print(
        f"total faults {result['total_faults']}, "
        f"violations {result['total_violations']}, "
        f"lost keys {result['total_lost_keys']}"
    )
    failed = records.failures(campaign_records(result, args.faults))
    for failure in failed:
        print(f"REGRESSION: {failure}")
    if failed:
        return 1
    print("fault campaign passed: zero invariant violations, zero lost keys")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
