"""The one bench record shape and its checker (``benchmarks/records.py``)."""

import argparse
import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
records = importlib.import_module("records")
trajectory = importlib.import_module("trajectory")

#: The tolerance each bench's ``--check BENCH_PR<N>.json`` step runs at in CI.
CI_TOLERANCE = {
    "BENCH_PR2.json": 0.30,
    "BENCH_PR3.json": 0.25,
    "BENCH_PR4.json": 0.30,
    "BENCH_PR6.json": 0.30,
    "BENCH_PR7.json": 0.30,
    "BENCH_PR8.json": 0.75,
    "BENCH_PR9.json": 0.30,
}

#: Every (file, metric, gate) -> (op, threshold) the per-bench checkers
#: enforced on the committed files at CI tolerance before they were
#: folded into ``records.py``, recovered from them by float bisection.
#: Two rows are restated in record form: BENCH_PR2's ">= 2 families reach 2x"
#: is the second-best lookup speedup >= 2, and BENCH_PR7's "admission sheds
#: > 0" is a count >= 1.  Its drift floors apply to the ratio capped
#: at 1.5x the bar (3.0), which passes exactly when the raw ratio does.
PINNED = {
    ("BENCH_PR2.json", "lookups.2nd_best_speedup", "bound"): (">=", 2.0),
    ("BENCH_PR2.json", "lookups.bptree_succinct.speedup", "drift"): (">=", 5.2794),
    ("BENCH_PR2.json", "lookups.bptree_adaptive.speedup", "drift"): (">=", 5.2219999999999995),
    ("BENCH_PR2.json", "lookups.dualstage.speedup", "drift"): (">=", 2.2756999999999996),
    ("BENCH_PR2.json", "lookups.art.speedup", "drift"): (">=", 0.9464),
    ("BENCH_PR2.json", "lookups.fst.speedup", "drift"): (">=", 1.1837),
    ("BENCH_PR2.json", "lookups.hybridtrie.speedup", "drift"): (">=", 0.7202999999999999),
    ("BENCH_PR2.json", "inserts.bptree_gapped.speedup", "drift"): (">=", 0.9254),
    ("BENCH_PR2.json", "inserts.dualstage.speedup", "drift"): (">=", 3.3481),
    ("BENCH_PR3.json", "bptree_succinct.gate_share", "bound"): ("<=", 0.05),
    ("BENCH_PR3.json", "bptree_succinct.gate_share", "drift"): ("<=", 0.007875),
    ("BENCH_PR3.json", "bptree_adaptive.gate_share", "bound"): ("<=", 0.05),
    ("BENCH_PR3.json", "bptree_adaptive.gate_share", "drift"): ("<=", 0.006874999999999999),
    ("BENCH_PR3.json", "dualstage.gate_share", "bound"): ("<=", 0.05),
    ("BENCH_PR3.json", "dualstage.gate_share", "drift"): ("<=", 0.005375),
    ("BENCH_PR3.json", "art.gate_share", "bound"): ("<=", 0.05),
    ("BENCH_PR3.json", "art.gate_share", "drift"): ("<=", 0.02375),
    ("BENCH_PR3.json", "fst.gate_share", "bound"): ("<=", 0.05),
    ("BENCH_PR3.json", "fst.gate_share", "drift"): ("<=", 0.000875),
    ("BENCH_PR3.json", "hybridtrie.gate_share", "bound"): ("<=", 0.05),
    ("BENCH_PR3.json", "hybridtrie.gate_share", "drift"): ("<=", 0.001),
    ("BENCH_PR3.json", "keys", "drift"): ("==", 4000),
    ("BENCH_PR4.json", "modeled_speedup@4shards", "bound"): (">=", 2.0),
    ("BENCH_PR4.json", "modeled_speedup@1shards", "drift"): (">=", 0.7),
    ("BENCH_PR4.json", "modeled_speedup@2shards", "drift"): (">=", 1.4),
    ("BENCH_PR4.json", "modeled_speedup@4shards", "drift"): (">=", 2.758),
    ("BENCH_PR4.json", "modeled_speedup@8shards", "drift"): (">=", 5.467),
    ("BENCH_PR6.json", "group_commit_retention", "bound"): (">=", 0.5),
    ("BENCH_PR6.json", "wal_off_retention", "drift"): (">=", 0.7),
    ("BENCH_PR6.json", "group_commit_retention", "drift"): (">=", 0.52892),
    ("BENCH_PR6.json", "fsync_per_batch_retention", "drift"): (">=", 0.40964),
    ("BENCH_PR6.json", "crash_campaign.lost_writes", "bound"): ("==", 0),
    ("BENCH_PR6.json", "crash_campaign.phantom_writes", "bound"): ("==", 0),
    ("BENCH_PR7.json", "coalescing_p99_ratio", "bound"): (">=", 2.0),
    ("BENCH_PR7.json", "coalescing_p99_ratio.capped", "drift"): (">=", 2.0999999999999996),
    ("BENCH_PR7.json", "admission_p999_ratio", "bound"): (">=", 2.0),
    ("BENCH_PR7.json", "admission_p999_ratio.capped", "drift"): (">=", 2.0999999999999996),
    ("BENCH_PR7.json", "admission_p999_s", "bound"): ("<=", 4.0),
    ("BENCH_PR7.json", "admission_sheds", "bound"): (">=", 1),
    ("BENCH_PR8.json", "tracing.disabled_share", "bound"): ("<=", 0.05),
    ("BENCH_PR8.json", "tracing.disabled_share", "drift"): ("<=", 0.0012985000000000002),
    ("BENCH_PR8.json", "tracing.sampled_1pct_share", "bound"): ("<=", 0.05),
    ("BENCH_PR8.json", "tracing.sampled_1pct_share", "drift"): ("<=", 0.004893),
    ("BENCH_PR8.json", "tracing.sampled_100pct_share", "drift"): ("<=", 0.36067150000000003),
    ("BENCH_PR9.json", "replication.divergent_speedup", "bound"): (">=", 1.3),
    ("BENCH_PR9.json", "replication.divergent_speedup", "drift"): (">=", 1.1088),
    ("BENCH_PR9.json", "replication.faults_injected", "bound"): (">=", 1),
    ("BENCH_PR9.json", "replication.replicas_downed", "bound"): (">=", 1),
    ("BENCH_PR9.json", "replication.replicas_rebuilt", "bound"): (">=", 1),
    ("BENCH_PR9.json", "replication.profiles_preserved", "bound"): ("==", 1),
    ("BENCH_PR9.json", "replication.lost_acked_writes", "bound"): ("==", 0),
}

#: The 17 bounds ``trajectory.py --check`` enforced through its per-file
#: extractors before every file carried records: (file, metric) -> (op, bound).
TRAJECTORY_BOUNDS_BEFORE = {
    ("BENCH_PR3.json", "bptree_succinct.gate_share"): ("<=", 0.05),
    ("BENCH_PR3.json", "bptree_adaptive.gate_share"): ("<=", 0.05),
    ("BENCH_PR3.json", "dualstage.gate_share"): ("<=", 0.05),
    ("BENCH_PR3.json", "art.gate_share"): ("<=", 0.05),
    ("BENCH_PR3.json", "fst.gate_share"): ("<=", 0.05),
    ("BENCH_PR3.json", "hybridtrie.gate_share"): ("<=", 0.05),
    ("BENCH_PR4.json", "modeled_speedup@4shards"): (">=", 2.0),
    ("BENCH_PR6.json", "group_commit_retention"): (">=", 0.5),
    ("BENCH_PR6.json", "crash_campaign.lost_writes"): ("==", 0),
    ("BENCH_PR6.json", "crash_campaign.phantom_writes"): ("==", 0),
    ("BENCH_PR7.json", "coalescing_p99_ratio"): (">=", 2.0),
    ("BENCH_PR7.json", "admission_p999_ratio"): (">=", 2.0),
    ("BENCH_PR7.json", "admission_p999_s"): ("<=", 4.0),
    ("BENCH_PR8.json", "tracing.disabled_share"): ("<=", 0.05),
    ("BENCH_PR8.json", "tracing.sampled_1pct_share"): ("<=", 0.05),
    ("BENCH_PR9.json", "replication.divergent_speedup"): (">=", 1.3),
    ("BENCH_PR9.json", "replication.lost_acked_writes"): ("<=", 0),
}


def committed(name):
    return json.loads((REPO_ROOT / name).read_text())


def gate_table(name, tolerance):
    payload = committed(name)
    found, errors = records.gates(payload["records"], payload, tolerance)
    assert errors == []
    return {
        (name, rec["metric"], "drift" if rec["bound"] is None else "bound"): (rec["op"], threshold)
        for rec, threshold in found
    }


def drift(metric, value, op):
    return records.record(metric, value, "x", "wall", op)


class TestPinnedThresholds:
    def test_checker_enforces_exactly_the_pinned_table(self):
        table = {}
        for name, tolerance in CI_TOLERANCE.items():
            table.update(gate_table(name, tolerance))
        assert table == PINNED

    def test_every_committed_file_is_pinned(self):
        assert set(CI_TOLERANCE) == {path.name for path in REPO_ROOT.glob("BENCH_PR*.json")}

    def test_trajectory_still_checks_every_earlier_bound_unloosened(self):
        rows, errors = trajectory.collect(REPO_ROOT)
        assert errors == []
        now = {(row["file"], row["metric"]): row for row in rows if row["bound"] is not None}
        for key, (op, bound) in TRAJECTORY_BOUNDS_BEFORE.items():
            row = now[key]
            assert row["ok"] is True
            assert row["bound"] == bound
            # Same op, or "==" where the bench itself already required
            # exactly zero (BENCH_PR9's lost acked writes), which is stricter.
            assert row["op"] in (op, "=="), key

    def test_committed_files_hold_against_themselves(self):
        for name in CI_TOLERANCE:
            payload = committed(name)
            assert records.failures(payload["records"], payload, 0.0) == []


class TestDriftRule:
    def test_floor_ceiling_and_exact(self):
        baseline = {
            "suite": "b",
            "records": [
                drift("up", 10.0, ">="),
                drift("down", 10.0, "<="),
                drift("keys", 4000, "=="),
            ],
        }
        run = [drift("up", 7.0, ">="), drift("down", 13.0, "<="), drift("keys", 4000, "==")]
        assert records.failures(run, baseline, 0.30) == []
        for keys in (2000, 8000):
            run = [drift("up", 6.9, ">="), drift("down", 13.1, "<="), drift("keys", keys, "==")]
            failed = records.failures(run, baseline, 0.30)
            assert [line.split(" ")[0] for line in failed] == ["up", "down", "keys"]

    def test_empty_baseline_is_a_failure_not_a_pass(self):
        run = [drift("speedup", 3.0, ">=")]
        assert records.failures(run, {"suite": "x"}, 0.30) == ["baseline: no 'records' list"]

    def test_baseline_lacking_a_drift_record_is_a_failure(self):
        baseline = {"suite": "b", "records": [drift("other", 1.0, ">=")]}
        failed = records.failures([drift("speedup", 3.0, ">=")], baseline, 0.30)
        assert failed == [
            "other: drift record in the baseline, not produced by this run",
            "speedup: no drift record in the baseline",
        ]

    def test_bounds_gate_without_a_baseline_and_drift_does_not(self):
        rows = [
            records.record("share", 0.06, "frac", "wall", "<=", 0.05),
            drift("speedup", 0.1, ">="),
            records.record("info", 1.0, "x", "wall"),
        ]
        (failure,) = records.failures(rows)
        assert failure.startswith("share = 0.06 frac (wall), requires <= 0.05")

    def test_informational_records_never_gate(self):
        baseline = {"suite": "b", "records": [records.record("info", 1.0, "x", "wall")]}
        assert records.failures([records.record("info", 99.0, "x", "wall")], baseline, 0.0) == []


class TestShape:
    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"kind": "guessed"}, "kind must be one of wall, modeled"),
            ({"op": ">"}, "op must be null or one of >=, <=, =="),
            ({"op": None, "bound": 1.0}, "a bound must be a number with an op"),
            ({"value": True}, "value must be a number"),
            ({"metric": ""}, "metric must be a non-empty string"),
        ],
    )
    def test_malformed_record_is_named(self, change, problem):
        rec = {**records.record("m", 1.0, "x", "wall", ">=", 1.0), **change}
        assert records.problems({"suite": "s", "records": [rec]}) == [f"records[0]: {problem}"]

    def test_duplicate_gate_is_malformed(self):
        rec = records.record("m", 1.0, "x", "wall", ">=", 1.0)
        assert records.problems({"suite": "s", "records": [rec, dict(rec)]}) == [
            "records[1]: duplicate bound record"
        ]


class TestFinish:
    def parse(self, argv, out):
        parser = argparse.ArgumentParser()
        records.add_arguments(parser, out, 0.30)
        return parser.parse_args(argv)

    def test_shared_options_and_defaults(self, tmp_path):
        args = self.parse([], tmp_path / "out.json")
        assert vars(args) == {
            "out": tmp_path / "out.json",
            "no_write": False,
            "check": None,
            "tolerance": 0.30,
        }

    def test_passing_run_is_written(self, tmp_path, capsys):
        out = tmp_path / "BENCH_PR99.json"
        payload = {"suite": "s", "records": [drift("speedup", 3.0, ">=")]}
        assert records.finish(payload, self.parse([], out)) == 0
        assert json.loads(out.read_text()) == payload
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        args = self.parse(["--check", str(baseline), "--no-write"], out)
        assert records.finish(payload, args) == 0
        assert "1 gate(s) hold vs" in capsys.readouterr().out

    def test_failing_run_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "BENCH_PR99.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"suite": "x"}))
        payload = {"suite": "s", "records": [drift("speedup", 3.0, ">=")]}
        assert records.finish(payload, self.parse(["--check", str(baseline)], out)) == 1
        assert "REGRESSION: baseline: no 'records' list" in capsys.readouterr().out
        assert not out.exists()
