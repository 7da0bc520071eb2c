"""One record shape and one checker for every bench's headline numbers.

Each bench appends its headline numbers to ``payload["records"]``, one
record per gate, every record carrying all six keys::

    {"metric": "group_commit_retention", "value": 0.7556, "unit": "frac",
     "kind": "wall", "op": ">=", "bound": 0.5}

* ``kind`` is ``"wall"`` for a number measured directly in the run (a
  wall-clock time, a ratio of wall-clock times, a count) and
  ``"modeled"`` for one priced through the cost model or composed from
  separately timed components.
* A record with a ``bound`` is an absolute gate: ``value op bound`` must
  hold on every run and in every committed file (``trajectory.py
  --check``).
* A record with an ``op`` and a null ``bound`` is a drift gate against
  the record of the same metric in a baseline file (``--check FILE``):
  the floor is ``baseline * (1 - tolerance)`` for ``>=``, the ceiling
  ``baseline * (1 + tolerance)`` for ``<=``, and ``==`` must match the
  baseline exactly.
* A record with a null ``op`` is informational.

A metric gated both ways carries two records.  A baseline without
records, or one that lacks a drift record the run produces (or the
other way round), is an error, never a silent pass.

Every gated bench's ``main`` ends the same way: :func:`add_arguments` declares
``--out/--no-write/--check/--tolerance`` and :func:`finish` gates the
records and writes the payload.
"""

import json
import operator
import time
from pathlib import Path

FIELDS = ("metric", "value", "unit", "kind", "op", "bound")
KINDS = ("wall", "modeled")
OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def record(metric, value, unit, kind, op=None, bound=None):
    """One headline number in the shared shape."""
    return {
        "metric": metric,
        "value": value,
        "unit": unit,
        "kind": kind,
        "op": op,
        "bound": bound,
    }


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def problems(payload):
    """Why ``payload`` is not a well-formed bench result (empty if it is)."""
    if not isinstance(payload, dict) or "suite" not in payload:
        return ["not a JSON object with a 'suite' key"]
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        return ["no 'records' list"]
    found = []
    seen = set()
    for index, rec in enumerate(records):
        where = f"records[{index}]"
        if not isinstance(rec, dict) or set(rec) != set(FIELDS):
            found.append(f"{where}: keys must be exactly {', '.join(FIELDS)}")
            continue
        if not isinstance(rec["metric"], str) or not rec["metric"]:
            found.append(f"{where}: metric must be a non-empty string")
        if not _is_number(rec["value"]):
            found.append(f"{where}: value must be a number")
        if not isinstance(rec["unit"], str):
            found.append(f"{where}: unit must be a string")
        if rec["kind"] not in KINDS:
            found.append(f"{where}: kind must be one of {', '.join(KINDS)}")
        if rec["op"] is not None and rec["op"] not in OPS:
            found.append(f"{where}: op must be null or one of {', '.join(OPS)}")
        if rec["bound"] is not None and (rec["op"] is None or not _is_number(rec["bound"])):
            found.append(f"{where}: a bound must be a number with an op")
        key = (rec["metric"], rec["bound"] is None)
        if key in seen:
            found.append(f"{where}: duplicate {'drift' if key[1] else 'bound'} record")
        seen.add(key)
    return found


def _drift(records):
    return {rec["metric"]: rec for rec in records if rec["op"] and rec["bound"] is None}


def _drift_threshold(op, base, tolerance):
    if op == ">=":
        return base * (1.0 - tolerance)
    if op == "<=":
        return base * (1.0 + tolerance)
    return base


def gates(records, baseline=None, tolerance=0.0):
    """Every gate on ``records`` as ``(record, threshold)``, plus errors.

    Bound records always gate.  Drift records gate only against a
    ``baseline`` payload; an error names each drift metric found on one
    side but not the other.
    """
    found = [(rec, rec["bound"]) for rec in records if rec["bound"] is not None]
    if baseline is None:
        return found, []
    errors = [f"baseline: {problem}" for problem in problems(baseline)]
    if errors:
        return found, errors
    current = _drift(records)
    past = _drift(baseline["records"])
    errors = [
        f"{metric}: drift record in the baseline, not produced by this run"
        for metric in past
        if metric not in current
    ]
    for metric, rec in current.items():
        if metric not in past:
            errors.append(f"{metric}: no drift record in the baseline")
            continue
        found.append((rec, _drift_threshold(rec["op"], past[metric]["value"], tolerance)))
    return found, errors


def holds(rec, threshold):
    """Whether ``rec``'s value satisfies its op against ``threshold``."""
    return OPS[rec["op"]](rec["value"], threshold)


def _violations(found):
    return [
        f"{rec['metric']} = {rec['value']:g} {rec['unit']} ({rec['kind']}), "
        f"requires {rec['op']} {threshold:g}"
        + (" (absolute bound)" if rec["bound"] is not None else " (drift from baseline)")
        for rec, threshold in found
        if not holds(rec, threshold)
    ]


def failures(records, baseline=None, tolerance=0.0):
    """Every gate ``records`` fail, plus every error forming the gates."""
    found, errors = gates(records, baseline, tolerance)
    return errors + _violations(found)


def best_of(runs, func):
    """Fastest wall-clock of ``runs`` executions (noise floor, not mean)."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def add_arguments(parser, out, tolerance):
    """The ``--out/--no-write/--check/--tolerance`` options of every bench."""
    parser.add_argument(
        "--out",
        type=Path,
        default=out,
        help="result JSON path" + ("" if out is None else f" (default {out})"),
    )
    parser.add_argument("--no-write", action="store_true", help="skip writing the result JSON")
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="baseline result JSON for the drift gates",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=tolerance,
        help=f"allowed relative drift from the baseline (default {tolerance})",
    )


def finish(payload, args):
    """Gate ``payload["records"]``, then write the payload; the exit code."""
    baseline = None if args.check is None else json.loads(args.check.read_text())
    found, failed = gates(payload["records"], baseline, args.tolerance)
    failed += _violations(found)
    for failure in failed:
        print(f"REGRESSION: {failure}")
    if failed:
        return 1
    against = "" if baseline is None else f" vs {args.check} (tolerance {args.tolerance:.0%})"
    print(f"{len(found)} gate(s) hold{against}")
    if not args.no_write:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0
