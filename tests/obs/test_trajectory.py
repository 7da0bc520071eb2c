"""The cross-PR trajectory aggregator over committed BENCH_PR*.json."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "trajectory", REPO_ROOT / "benchmarks" / "trajectory.py"
)
assert spec is not None and spec.loader is not None
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)


def write(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


class TestCollect:
    def test_known_suite_rows_carry_their_own_bounds(self, tmp_path):
        write(
            tmp_path,
            "BENCH_PR4.json",
            {
                "suite": "PR4 sharded index service bench",
                "headline": {"shards": 4, "modeled_speedup": 3.5, "required": 2.0},
            },
        )
        rows, errors = trajectory.collect(tmp_path)
        assert errors == []
        (row,) = rows
        assert row["ok"] is True
        assert row["file"] == "BENCH_PR4.json"
        assert row["metric"] == "modeled_speedup@4shards"

    def test_violated_bound_is_flagged_not_raised(self, tmp_path):
        write(
            tmp_path,
            "BENCH_PR4.json",
            {
                "suite": "PR4 sharded index service bench",
                "headline": {"shards": 4, "modeled_speedup": 1.1, "required": 2.0},
            },
        )
        rows, _errors = trajectory.collect(tmp_path)
        assert rows[0]["ok"] is False

    def test_unknown_future_pr_is_listed_not_an_error(self, tmp_path):
        write(tmp_path, "BENCH_PR99.json", {"suite": "PR99 future bench"})
        rows, errors = trajectory.collect(tmp_path)
        assert errors == []
        assert rows[0]["suite"] == "PR99 future bench"
        assert rows[0]["ok"] is None

    def test_malformed_files_become_errors(self, tmp_path):
        (tmp_path / "BENCH_PR50.json").write_text("{not json")
        write(tmp_path, "BENCH_PR51.json", ["no", "suite"])
        write(tmp_path, "BENCH_PR52.json", {"suite": "PR4-shaped", "headline": {}})
        (tmp_path / "BENCH_PR52.json").rename(tmp_path / "BENCH_PR4.json")
        rows, errors = trajectory.collect(tmp_path)
        assert rows == []
        assert len(errors) == 3

    def test_missing_bound_is_malformed_not_defaulted(self, tmp_path):
        # A result file must carry its own bound; the aggregator never
        # supplies one.
        write(
            tmp_path,
            "BENCH_PR9.json",
            {"suite": "PR9 divergent replicas", "headline": {"divergent_speedup": 1.5}},
        )
        rows, errors = trajectory.collect(tmp_path)
        assert rows == []
        assert errors == ["BENCH_PR9.json: malformed for BENCH_PR9 extractor: 'required'"]

    def test_files_sort_by_pr_number(self, tmp_path):
        # PR numbers without extractors, so ordering is all that matters;
        # 12 vs 101 sorts numerically, not lexicographically.
        write(tmp_path, "BENCH_PR101.json", {"suite": "one-oh-one"})
        write(tmp_path, "BENCH_PR12.json", {"suite": "twelve"})
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
        # Every known suite contributed at least one checked bound.
        checked_files = {row["file"] for row in rows if row["ok"] is not None}
        assert {"BENCH_PR3.json", "BENCH_PR8.json"} <= checked_files


class TestCli:
    def test_check_passes_on_clean_root(self, tmp_path, capsys):
        write(
            tmp_path,
            "BENCH_PR4.json",
            {
                "suite": "s",
                "headline": {"shards": 4, "modeled_speedup": 3.5, "required": 2.0},
            },
        )
        assert trajectory.main(["--root", str(tmp_path), "--check"]) == 0
        assert "trajectory ok" in capsys.readouterr().out

    def test_check_fails_on_violation_and_malformed(self, tmp_path, capsys):
        write(
            tmp_path,
            "BENCH_PR4.json",
            {
                "suite": "s",
                "headline": {"shards": 4, "modeled_speedup": 1.0, "required": 2.0},
            },
        )
        assert trajectory.main(["--root", str(tmp_path), "--check"]) == 1
        assert "TRAJECTORY FAILURE" in capsys.readouterr().err
        (tmp_path / "BENCH_PR4.json").write_text("{broken")
        assert trajectory.main(["--root", str(tmp_path), "--check"]) == 1

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        write(tmp_path, "BENCH_PR77.json", {"suite": "s"})
        assert trajectory.main(["--root", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == []
        assert payload["rows"][0]["suite"] == "s"
