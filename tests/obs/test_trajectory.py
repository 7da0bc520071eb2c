"""The cross-PR trajectory aggregator over committed BENCH_PR*.json."""

import importlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
records = importlib.import_module("records")
trajectory = importlib.import_module("trajectory")


def write(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


def bench(suite, *rows):
    return {"suite": suite, "records": list(rows)}


def speedup(value, bound=2.0):
    return records.record("modeled_speedup@4shards", value, "x", "modeled", ">=", bound)


class TestCollect:
    def test_known_suite_rows_carry_their_own_bounds(self, tmp_path):
        write(tmp_path, "BENCH_PR4.json", bench("PR4 sharded index service bench", speedup(3.5)))
        rows, errors = trajectory.collect(tmp_path)
        assert errors == []
        (row,) = rows
        assert row["ok"] is True
        assert row["file"] == "BENCH_PR4.json"
        assert row["metric"] == "modeled_speedup@4shards"
        assert (row["op"], row["bound"], row["kind"]) == (">=", 2.0, "modeled")

    def test_violated_bound_is_flagged_not_raised(self, tmp_path):
        write(tmp_path, "BENCH_PR4.json", bench("PR4 sharded index service bench", speedup(1.1)))
        rows, _errors = trajectory.collect(tmp_path)
        assert rows[0]["ok"] is False

    def test_unknown_future_pr_is_listed_not_an_error(self, tmp_path):
        # A new bench that writes records is gated with no trajectory change.
        write(
            tmp_path,
            "BENCH_PR99.json",
            bench(
                "PR99 future bench",
                records.record("p99_ms", 12.0, "ms", "wall", "<=", 10.0),
                records.record("p99_ms", 12.0, "ms", "wall", "<="),
                records.record("capacity_rps", 9000, "req/s", "wall"),
            ),
        )
        rows, errors = trajectory.collect(tmp_path)
        assert errors == []
        assert [row["suite"] for row in rows] == ["PR99 future bench"] * 3
        assert [row["ok"] for row in rows] == [False, None, None]

    def test_malformed_files_become_errors(self, tmp_path):
        (tmp_path / "BENCH_PR50.json").write_text("{not json")
        write(tmp_path, "BENCH_PR51.json", ["no", "suite"])
        # A file without records is malformed, whatever else it carries.
        write(
            tmp_path,
            "BENCH_PR4.json",
            {"suite": "PR4-shaped", "headline": {"modeled_speedup": 3.5, "required": 2.0}},
        )
        rows, errors = trajectory.collect(tmp_path)
        assert rows == []
        assert len(errors) == 3
        assert "BENCH_PR4.json: no 'records' list" in errors

    def test_missing_bound_is_malformed_not_defaulted(self, tmp_path):
        # A record must state its own bound, even a null one; the
        # aggregator never supplies one.
        rec = records.record("replication.divergent_speedup", 1.5, "x", "modeled", ">=")
        del rec["bound"]
        write(tmp_path, "BENCH_PR9.json", bench("PR9 divergent replicas", rec))
        rows, errors = trajectory.collect(tmp_path)
        assert rows == []
        assert errors == [
            "BENCH_PR9.json: records[0]: keys must be exactly metric, value, unit, kind, op, bound"
        ]

    def test_files_sort_by_pr_number(self, tmp_path):
        # 12 vs 101 sorts numerically, not lexicographically.
        write(tmp_path, "BENCH_PR101.json", bench("one-oh-one", speedup(3.0)))
        write(tmp_path, "BENCH_PR12.json", bench("twelve", speedup(3.0)))
        rows, _errors = trajectory.collect(tmp_path)
        assert [row["suite"] for row in rows] == ["twelve", "one-oh-one"]


class TestCommittedArtifacts:
    def test_repo_root_results_are_all_clean(self):
        """The committed BENCH_PR*.json must satisfy their own bounds."""
        rows, errors = trajectory.collect(REPO_ROOT)
        assert errors == []
        assert rows, "expected committed BENCH_PR*.json files at the repo root"
        failing = [row for row in rows if row["ok"] is False]
        assert failing == []
        # Every committed file contributes at least one checked bound.
        checked_files = {row["file"] for row in rows if row["ok"] is not None}
        assert checked_files == {path.name for path in REPO_ROOT.glob("BENCH_PR*.json")}


class TestCli:
    def test_check_passes_on_clean_root(self, tmp_path, capsys):
        write(tmp_path, "BENCH_PR4.json", bench("s", speedup(3.5)))
        assert trajectory.main(["--root", str(tmp_path), "--check"]) == 0
        assert "trajectory ok" in capsys.readouterr().out

    def test_check_fails_on_violation_and_malformed(self, tmp_path, capsys):
        write(tmp_path, "BENCH_PR4.json", bench("s", speedup(1.0)))
        assert trajectory.main(["--root", str(tmp_path), "--check"]) == 1
        assert "TRAJECTORY FAILURE" in capsys.readouterr().err
        (tmp_path / "BENCH_PR4.json").write_text("{broken")
        assert trajectory.main(["--root", str(tmp_path), "--check"]) == 1

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        write(tmp_path, "BENCH_PR77.json", bench("s", speedup(3.5)))
        assert trajectory.main(["--root", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == []
        assert payload["rows"][0]["suite"] == "s"
        assert payload["rows"][0]["kind"] == "modeled"

    def test_text_format_labels_each_record_wall_or_modeled(self, tmp_path, capsys):
        write(
            tmp_path,
            "BENCH_PR4.json",
            bench("s", speedup(3.5), records.record("wall_mops", 0.28, "Mops", "wall")),
        )
        assert trajectory.main(["--root", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any("modeled_speedup@4shards" in line and " modeled " in line for line in lines)
        assert any("wall_mops" in line and " wall " in line for line in lines)
