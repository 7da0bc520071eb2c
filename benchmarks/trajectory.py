"""Cross-PR performance trajectory report.

Every perf-bearing PR commits a machine-readable ``BENCH_PR<N>.json`` at
the repo root (batched ops, observability overhead, sharding speedup,
durability retention, tail latency, distributed-tracing overhead,
divergent replicas).  Each carries its headline numbers as ``records``
in the one shape ``records.py`` defines.  This tool reads them all and
renders the repo's performance story in one table — every record with
its ``wall``/``modeled`` kind next to the bound it promises — so a
reviewer can see at a glance whether the claims still hold together::

    PYTHONPATH=src python benchmarks/trajectory.py
    PYTHONPATH=src python benchmarks/trajectory.py --format json
    PYTHONPATH=src python benchmarks/trajectory.py --check

``--check`` exits non-zero when any committed record violates its own
``bound`` (e.g. ``BENCH_PR4.json``'s modeled speedup below 2x), or when
a ``BENCH_PR*.json`` is not a JSON object with a ``suite`` key and
well-formed ``records``.  CI's bench-smoke job runs it so a PR cannot
commit a result file that contradicts the claim it documents.

Nothing here is specific to one file: a new bench that writes
``records`` is gated with no change to this tool.  Drift records are
listed without a verdict; they gate a bench run against its baseline
(``--check FILE`` on the bench), not the committed file against itself.
"""

import argparse
import json
import sys
from pathlib import Path

import records

REPO_ROOT = Path(__file__).resolve().parent.parent


def _pr_number(path):
    digits = "".join(ch for ch in path.stem if ch.isdigit())
    return int(digits) if digits else 0


def collect(root=REPO_ROOT):
    """Read every BENCH_PR*.json under ``root``; returns (rows, errors).

    A row is one record plus its ``file``, ``suite`` and ``ok`` — None
    for a record with no bound.
    """
    rows = []
    errors = []
    for path in sorted(root.glob("BENCH_PR*.json"), key=_pr_number):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            errors.append(f"{path.name}: unreadable: {error}")
            continue
        problems = records.problems(payload)
        if problems:
            errors.extend(f"{path.name}: {problem}" for problem in problems)
            continue
        for rec in payload["records"]:
            ok = None if rec["bound"] is None else records.holds(rec, rec["bound"])
            rows.append({"file": path.name, "suite": payload["suite"], **rec, "ok": ok})
    return rows, errors


def _verdict(row):
    if row["ok"] is not None:
        return f"  {'ok' if row['ok'] else 'FAIL'} (requires {row['op']} {row['bound']:g})"
    if row["op"] is not None:
        return f"  drift {row['op']} baseline"
    return ""


def format_text(rows, errors):
    lines = ["performance trajectory (committed BENCH_PR*.json records)", ""]
    current = None
    for row in rows:
        if row["file"] != current:
            current = row["file"]
            lines.append(f"{current}  [{row['suite']}]")
        value = f"{row['value']:g} {row['unit']}"
        lines.append(f"  {row['metric']:<36} {row['kind']:<8} {value:>14}{_verdict(row)}")
    for error in errors:
        lines.append(f"  ERROR: {error}")
    checked = [row for row in rows if row["ok"] is not None]
    failed = [row for row in checked if not row["ok"]]
    lines.append("")
    lines.append(
        f"{len(rows)} record(s) from {len({row['file'] for row in rows})} file(s); "
        f"{len(checked)} bound(s) checked, {len(failed)} failed, "
        f"{len(errors)} file error(s)"
    )
    return "\n".join(lines)


def format_json(rows, errors):
    return json.dumps({"rows": rows, "errors": errors}, indent=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Aggregate committed BENCH_PR*.json headline records."
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="directory holding BENCH_PR*.json (default: repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any record violates its bound or a file is malformed",
    )
    args = parser.parse_args(argv)
    rows, errors = collect(args.root)
    print(format_text(rows, errors) if args.format == "text" else format_json(rows, errors))
    if args.check:
        failed = [row for row in rows if row["ok"] is False]
        for row in failed:
            print(
                f"TRAJECTORY FAILURE: {row['file']} {row['metric']} = "
                f"{row['value']:g}, requires {row['op']} {row['bound']:g}",
                file=sys.stderr,
            )
        if failed or errors:
            return 1
        checked = sum(1 for row in rows if row["ok"] is not None)
        print(f"trajectory ok: {checked} bound(s) hold across {len(rows)} record(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
