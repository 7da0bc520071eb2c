"""Finding reporters: human text and machine JSON.

The JSON shape is pinned by ``docs/analysis_report_schema.json``, which
``tests/analysis`` and CI validate the report against.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Sequence

from repro.analysis.core import Finding, Rule

TOOL_NAME = "repro.analysis"
REPORT_VERSION = 2


def render_text(findings: Sequence[Finding], suppressed: int = 0) -> str:
    """One line per finding, ruff/gcc style, plus a summary line."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
        + (f" [{f.symbol}]" if f.symbol else "")
        + (" (warning)" if f.severity == "warning" else "")
        for f in findings
    ]
    by_rule = Counter(f.rule for f in findings)
    if findings:
        counts = ", ".join(f"{rule}: {count}" for rule, count in sorted(by_rule.items()))
        lines.append(f"{len(findings)} finding(s) ({counts}); {suppressed} suppressed")
    else:
        lines.append(f"clean: 0 findings; {suppressed} suppressed")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    rules: Sequence[Rule],
    paths: Sequence[str],
    suppressed: int = 0,
) -> Dict[str, object]:
    """The machine-readable report (docs/analysis_report_schema.json)."""
    by_rule = Counter(f.rule for f in findings)
    return {
        "version": REPORT_VERSION,
        "tool": TOOL_NAME,
        "paths": list(paths),
        "rules": [
            {
                "id": rule.id,
                "title": rule.title,
                "rationale": rule.rationale,
                "severity": rule.severity,
            }
            for rule in rules
        ],
        "findings": [f.as_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "suppressed": suppressed,
            "by_rule": {rule_id: by_rule[rule_id] for rule_id in sorted(by_rule)},
        },
    }
