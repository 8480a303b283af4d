"""Rendering for lint reports: terminal text and the CI JSON artifact.

The JSON artifact (``repro lint --json lint_report.json``) is what
``benchmarks/run_smoke.py`` and the CI gate validate: strict-JSON-safe
by construction (the findings are plain str/int payloads), with a
top-level ``clean`` flag so a gate needs exactly one key.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from .framework import RULES, Finding, LintReport


def render_findings(findings: List[Finding]) -> str:
    return "\n".join(finding.render() for finding in findings)


def render_report(report: LintReport) -> str:
    """Human-readable summary for the terminal."""
    lines: List[str] = []
    if report.parse_errors:
        lines.append("parse errors:")
        lines.extend(f"  {error}" for error in report.parse_errors)
    if report.findings:
        lines.append(render_findings(report.findings))
        by_rule = Counter(f.rule for f in report.findings)
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(by_rule.items())
        )
        lines.append(
            f"\n{len(report.findings)} finding"
            f"{'s' if len(report.findings) != 1 else ''} "
            f"in {report.files_scanned} files ({breakdown})"
        )
    else:
        lines.append(
            f"clean: {report.files_scanned} files, "
            f"{len(RULES.names())} rules, 0 findings"
        )
    return "\n".join(lines)


def render_rule_listing() -> str:
    """The ``--list-rules`` catalogue, grouped by family."""
    lines: List[str] = []
    current_family = None
    for spec in RULES:
        if spec.family != current_family:
            current_family = spec.family
            lines.append(f"[{spec.family}]")
        scope = ", ".join(spec.include)
        lines.append(f"  {spec.rule_id:<26} {spec.summary}  (scope: {scope})")
    return "\n".join(lines)


def write_json_report(report: LintReport, path: str) -> None:
    """Write the CI artifact; ``allow_nan=False`` enforces strictness."""
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(
            report.to_dict(), sink, indent=2, sort_keys=True, allow_nan=False
        )
        sink.write("\n")


__all__ = [
    "render_findings",
    "render_report",
    "render_rule_listing",
    "write_json_report",
]
