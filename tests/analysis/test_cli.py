"""CLI and reporters: formats, schemas, and exit codes."""

import json

from repro.analysis.cli import main
from repro.analysis.schema import SchemaError, load_schema, validate

import pytest

from tests.analysis.helpers import FIXTURES, REPO_ROOT

REPORT_SCHEMA = load_schema(REPO_ROOT / "docs" / "analysis_report_schema.json")
TRACE_SCHEMA = str(REPO_ROOT / "docs" / "trace_schema.json")


def _cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys is not None else ""
    return code, out


class TestExitCodes:
    def test_clean_fixture_exits_zero(self, capsys):
        code, out = _cli(
            str(FIXTURES / "ra004_good.py"),
            "--trace-schema",
            TRACE_SCHEMA,
            capsys=capsys,
        )
        assert code == 0
        assert "clean: 0 findings" in out

    def test_findings_exit_one(self, capsys):
        code, out = _cli(
            str(FIXTURES / "ra004_bad.py"),
            "--trace-schema",
            TRACE_SCHEMA,
            capsys=capsys,
        )
        assert code == 1
        assert "RA004" in out

    def test_warning_findings_exit_one(self, tmp_path, capsys):
        # Severity is a label only: RA007's warnings gate like errors.
        path = tmp_path / "repro" / "durability" / "leak.py"
        path.parent.mkdir(parents=True)
        path.write_text("def f():\n    handle = open('x')\n    handle.read()\n")
        code, out = _cli(str(path), "--select", "RA007", capsys=capsys)
        assert code == 1
        assert "RA007" in out and "(warning)" in out

    def test_missing_path_exits_two(self, capsys):
        code, _ = _cli(str(FIXTURES / "does_not_exist.py"), capsys=capsys)
        assert code == 2

    def test_unknown_rule_exits_two(self, capsys):
        code, _ = _cli(
            str(FIXTURES / "ra004_good.py"), "--select", "RA999", capsys=capsys
        )
        assert code == 2

    def test_select_limits_rules(self, capsys):
        # RA004 findings exist in ra004_bad.py, but RA001 alone sees none.
        code, _ = _cli(
            str(FIXTURES / "ra004_bad.py"), "--select", "RA001", capsys=capsys
        )
        assert code == 0

    def test_list_rules(self, capsys):
        code, out = _cli("--list-rules", capsys=capsys)
        assert code == 0
        for rule_id in (
            "RA001",
            "RA002",
            "RA003",
            "RA004",
            "RA005",
            "RA006",
            "RA007",
            "RA008",
        ):
            assert rule_id in out
        # Severity is part of the catalogue: RA007 is the warning rule.
        assert "[warning]" in out and "[error]" in out


class TestJsonReport:
    def _report(self, capsys, path):
        code, out = _cli(
            str(path), "--format", "json", "--trace-schema", TRACE_SCHEMA, capsys=capsys
        )
        return code, json.loads(out)

    def test_json_validates_against_checked_in_schema(self, capsys):
        code, report = self._report(capsys, FIXTURES / "ra004_bad.py")
        assert code == 1
        validate(report, REPORT_SCHEMA)
        assert report["summary"]["total"] == len(report["findings"]) > 0
        assert report["summary"]["by_rule"] == {"RA004": report["summary"]["total"]}

    def test_clean_json_report_validates(self, capsys):
        code, report = self._report(capsys, FIXTURES / "ra004_good.py")
        assert code == 0
        validate(report, REPORT_SCHEMA)
        assert report["findings"] == []

    def test_output_flag_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            [
                str(FIXTURES / "ra004_good.py"),
                "--format",
                "json",
                "--trace-schema",
                TRACE_SCHEMA,
                "--output",
                str(target),
            ]
        )
        assert code == 0
        validate(json.loads(target.read_text()), REPORT_SCHEMA)


class TestSuppressionGate:
    def test_unjustified_suppression_fails(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA001]\n")
        code, out = _cli(str(path), "--check-suppressions", capsys=capsys)
        assert code == 1
        assert "lacks a `-- justification`" in out

    def test_justified_but_stale_suppression_fails(self, tmp_path, capsys):
        # RA001 reports nothing on this line, so the suppression is dead
        # weight that would silently swallow a future real finding.
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA001] -- reviewed\n")
        code, out = _cli(str(path), "--check-suppressions", capsys=capsys)
        assert code == 1
        assert "stale suppression ignore[RA001]" in out

    def test_unknown_rule_suppression_fails(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA999] -- reviewed\n")
        code, out = _cli(str(path), "--check-suppressions", capsys=capsys)
        assert code == 1
        assert "unknown rule RA999" in out

    def test_live_tree_suppressions_pass(self, capsys):
        # Every suppression in src/repro is justified AND still matches
        # a finding its rule produces — the CI lint gate stays green.
        code, out = _cli(
            str(REPO_ROOT / "src" / "repro"),
            "--check-suppressions",
            "--trace-schema",
            TRACE_SCHEMA,
            capsys=capsys,
        )
        assert code == 0
        assert "suppression hygiene clean" in out

    def test_select_scopes_staleness(self, tmp_path, capsys):
        # A suppression for a rule excluded by --select is not judged.
        path = tmp_path / "mod.py"
        path.write_text("x = f()  # repro: ignore[RA001] -- reviewed\n")
        code, out = _cli(
            str(path),
            "--check-suppressions",
            "--select",
            "RA004",
            capsys=capsys,
        )
        assert code == 0
        assert "suppression hygiene clean" in out


class TestSchemaValidator:
    def test_validator_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            validate({"version": "1"}, {"properties": {"version": {"type": "integer"}}})

    def test_validator_rejects_missing_required(self):
        with pytest.raises(SchemaError):
            validate({}, {"type": "object", "required": ["version"]})

    def test_validator_rejects_bools_as_integers(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})

    def test_validator_rejects_unexpected_keys(self):
        schema = {"type": "object", "properties": {}, "additionalProperties": False}
        with pytest.raises(SchemaError):
            validate({"surprise": 1}, schema)
