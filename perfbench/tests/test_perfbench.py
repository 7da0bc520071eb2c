"""Self-tests of the benchmark: the checker, and every workload's output.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from checker import Oracle
from common import ROOT, TMP
from repro.net.protocol import STATUS_OK, STATUS_OVERLOADED, Response
from shims import LAYER_UNITS
from workloads import GET, PUT, SCAN, WORKLOADS, Op, preload_value

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
KEYS = [16 * i for i in range(1, 101)]


def _ok(**fields) -> Response:
    return Response(req_id=1, status=STATUS_OK, **fields)


@pytest.fixture
def oracle() -> Oracle:
    return Oracle(KEYS, tenants=2)


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def test_get_accepts_preload_and_written_values(oracle):
    key = KEYS[3]
    assert oracle.check(Op(GET, 1, key), _ok(found=True, value=preload_value(key, 1)), 0.0)
    put = Op(PUT, 1, key, 99_000_001)
    write = oracle.issue(put, 1.0)
    assert oracle.check(put, _ok(), 2.0, write)
    assert oracle.check(Op(GET, 1, key), _ok(found=True, value=99_000_001), 3.0)


def test_get_rejects_a_wrong_value(oracle):
    key = KEYS[3]
    assert not oracle.check(Op(GET, 0, key), _ok(found=True, value=preload_value(key, 1)), 0.0)
    assert not oracle.check(Op(GET, 0, key), _ok(found=False), 0.0)
    assert oracle.errors


def test_scan_accepts_the_next_keys(oracle):
    start = KEYS[10] - 5
    pairs = [(k, preload_value(k, 0)) for k in KEYS[10:14]]
    assert oracle.check(Op(SCAN, 0, start, 4), _ok(pairs=pairs), 0.0)


def test_scan_rejects_unsorted_short_long_and_early_keys(oracle):
    start = KEYS[10]
    pairs = [(k, preload_value(k, 0)) for k in KEYS[10:14]]
    assert not oracle.check(Op(SCAN, 0, start, 4), _ok(pairs=[pairs[1], pairs[0]] + pairs[2:]), 0.0)
    assert not oracle.check(Op(SCAN, 0, start, 3), _ok(pairs=pairs), 0.0)
    assert not oracle.check(Op(SCAN, 0, start, 4), _ok(pairs=pairs[1:]), 0.0)
    early = [(KEYS[9], preload_value(KEYS[9], 0))] + pairs[:3]
    assert not oracle.check(Op(SCAN, 0, start, 4), _ok(pairs=early), 0.0)


def test_missing_reply_and_shed_fail(oracle):
    assert not oracle.check(Op(GET, 0, KEYS[0]), None, 0.0)
    shed = Response(req_id=1, status=STATUS_OVERLOADED, message="overloaded")
    assert not oracle.check(Op(GET, 0, KEYS[0]), shed, 0.0)


def test_readback_wants_the_last_acked_write(oracle):
    key = KEYS[5]
    first, second = Op(PUT, 0, key, 70_000_001), Op(PUT, 0, key, 70_000_002)
    oracle.check(first, _ok(), 2.0, oracle.issue(first, 1.0))
    # Issued after the first was acked, so it must win.
    oracle.check(second, _ok(), 4.0, oracle.issue(second, 3.0))
    assert oracle.check_readback(0, key, _ok(found=True, value=70_000_002))
    assert not oracle.check_readback(0, key, _ok(found=True, value=70_000_001))
    assert not oracle.check_readback(0, key, None)


def test_readback_allows_either_of_two_concurrent_writes(oracle):
    key = KEYS[6]
    first, second = Op(PUT, 1, key, 70_000_011), Op(PUT, 1, key, 70_000_012)
    w1, w2 = oracle.issue(first, 1.0), oracle.issue(second, 1.5)
    oracle.check(first, _ok(), 2.0, w1)
    oracle.check(second, _ok(), 2.5, w2)
    assert oracle.check_readback(1, key, _ok(found=True, value=70_000_011))
    assert oracle.check_readback(1, key, _ok(found=True, value=70_000_012))


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_metrics_the_code_emits():
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(LAYER_UNITS)
    for entry in BENCHMARK["per_layer"]:
        assert entry["unit"] == LAYER_UNITS[entry["name"]]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_benchmark_json_records_each_workloads_fixed_rates():
    for entry in BENCHMARK["workloads"]:
        workload = WORKLOADS[entry["name"]]
        rates = [float(r.replace(",", "")) for r in re.findall(r"([\d,]+) and ([\d,]+)", entry["why"])[0]]
        assert rates == [workload.rate_low, workload.rate_high]


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = [name for entry in layers["map"] for name in entry["layers"]]
    assert sorted(mapped) == sorted(
        m["name"] for m in BENCHMARK["per_layer"] if not m["name"].startswith("loadgen.lat_")
    )
    known = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for entry in layers["map"]:
        assert set(entry["moves"]) <= known
        assert set(entry["on"]) <= set(WORKLOADS)
    for workload, table in layers["baseline"].items():
        assert workload in WORKLOADS and set(table) == set(LAYER_UNITS)


# ----------------------------------------------------------------------
# Each workload at tiny scale emits every named metric with its unit
# ----------------------------------------------------------------------
def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "4", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as bare:
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-get", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert done.returncode != 0
    assert done.stdout == ""
