"""The ``python -m repro.analysis`` command line.

Every run parses and analyzes the full set of paths it is given.  Exit
codes follow linter convention: 0 clean, 1 any finding (or, under
``--check-suppressions``, unjustified or stale suppressions), 2 usage or
parse errors.  A rule's severity is a reported label; it does not change
the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    Rule,
    all_rule_ids,
    build_rules,
    run_rules,
)
from repro.analysis.loader import AnalysisError, ParsedModule, load_paths
from repro.analysis.project import Project
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules.ra004_telemetry import TelemetryHygieneRule


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based static analysis enforcing this repo's "
        "concurrency, hot-path, migration, telemetry, async-purity, "
        "lock-order, handle-lifecycle, and WAL-fence disciplines.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--trace-schema",
        default=None,
        metavar="PATH",
        help="trace schema whose name pattern RA004 enforces "
        "(default: docs/trace_schema.json when present)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--check-suppressions",
        action="store_true",
        help="audit `# repro: ignore[...]` comments instead of reporting "
        "findings: flag missing `-- justification`s and *stale* "
        "suppressions whose rule no longer fires on their line",
    )
    return parser


def _build_rules(args: argparse.Namespace) -> List[Rule]:
    select: Optional[List[str]] = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    rules = build_rules(select)
    if args.trace_schema is not None:
        for position, rule in enumerate(rules):
            if isinstance(rule, TelemetryHygieneRule):
                rules[position] = TelemetryHygieneRule(Path(args.trace_schema))
    return rules


# -- suppression hygiene -------------------------------------------------
def _unjustified_suppressions(modules: Sequence[ParsedModule]) -> List[str]:
    problems: List[str] = []
    for module in modules:
        for suppression in module.suppressions:
            if not suppression.justified:
                rules = ",".join(sorted(suppression.rules))
                problems.append(
                    f"{module.path.as_posix()}:{suppression.line}: suppression "
                    f"ignore[{rules}] lacks a `-- justification` comment"
                )
    return problems


def _stale_suppressions(
    modules: Sequence[ParsedModule],
    rules: Sequence[Rule],
    suppressed_findings: Sequence[Finding],
) -> List[str]:
    """Suppressions whose rule no longer fires on their target line.

    A suppression earns its keep by matching a finding; one that
    matches nothing is dead weight that would silently swallow a future
    real finding on the same line.  Rules excluded by ``--select`` are
    skipped (absence of evidence), unknown rule ids are always flagged.
    """
    selected = {rule.id for rule in rules}
    known = set(all_rule_ids())
    fired: Set[Tuple[str, int, str]] = {
        (f.path, f.line, f.rule) for f in suppressed_findings
    }
    fired_lines: Set[Tuple[str, int]] = {
        (f.path, f.line) for f in suppressed_findings
    }
    problems: List[str] = []
    for module in modules:
        posix = module.path.as_posix()
        for line, rule_ids in sorted(module.suppression_targets().items()):
            for rule_id in sorted(rule_ids):
                if rule_id == "*":
                    if (posix, line) not in fired_lines:
                        problems.append(
                            f"{posix}:{line}: stale suppression ignore[*]: "
                            "no rule reports a finding on this line"
                        )
                elif rule_id not in known:
                    problems.append(
                        f"{posix}:{line}: suppression names unknown rule "
                        f"{rule_id} (known: {', '.join(sorted(known))})"
                    )
                elif rule_id not in selected:
                    continue
                elif (posix, line, rule_id) not in fired:
                    problems.append(
                        f"{posix}:{line}: stale suppression ignore[{rule_id}]: "
                        f"{rule_id} no longer reports a finding on this line"
                    )
    return problems


def _check_suppressions(
    modules: Sequence[ParsedModule], rules: Sequence[Rule]
) -> int:
    project = Project(modules)
    _, suppressed_findings = run_rules(project, rules)
    problems = _unjustified_suppressions(modules)
    problems += _stale_suppressions(modules, rules, suppressed_findings)
    for problem in sorted(problems):
        print(problem)
    if problems:
        print(f"{len(problems)} suppression problem(s)")
        return 1
    print(f"suppression hygiene clean across {len(modules)} module(s)")
    return 0


# -- reporting -----------------------------------------------------------
def _report(
    args: argparse.Namespace,
    findings: List[Finding],
    suppressed: int,
    rules: Sequence[Rule],
) -> int:
    """Render the report; any finding exits 1."""
    if args.format == "text":
        report = render_text(findings, suppressed)
    else:
        report = json.dumps(
            render_json(findings, rules, [str(p) for p in args.paths], suppressed),
            indent=2,
            sort_keys=True,
        )
    if args.output is None:
        print(report)
    else:
        Path(args.output).write_text(report + "\n")
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.list_rules:
        for rule in build_rules():
            print(f"{rule.id}  {rule.title} [{rule.severity}]\n    {rule.rationale}")
        return 0
    try:
        rules = _build_rules(args)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    try:
        modules = load_paths([Path(path) for path in args.paths])
    except AnalysisError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not modules:
        print("error: no python files found", file=sys.stderr)
        return 2
    if args.check_suppressions:
        return _check_suppressions(modules, rules)
    findings, suppressed_findings = run_rules(Project(modules), rules)
    return _report(args, findings, len(suppressed_findings), rules)


def list_rule_ids() -> List[str]:
    """Registered rule ids (import side-effect free helper for tests)."""
    return all_rule_ids()
