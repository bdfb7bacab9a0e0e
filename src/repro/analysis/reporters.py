"""Lint reporters: compiler-style text and SARIF 2.1.0.

Text goes to terminals and CI logs; SARIF is the interchange format code
hosts ingest for inline annotations.  Both render the same
:class:`~repro.analysis.rules.Finding` list; SARIF additionally embeds
the full rule catalog (id, severity, summary, rationale) so a viewer can
show ``--explain``-grade help next to each result.
"""

from __future__ import annotations

import json
from typing import Iterable

from .rules import Finding, Rule, Severity, all_rules

__all__ = ["format_text", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def format_text(findings: Iterable[Finding]) -> str:
    """The human-readable report: one line per finding, then a summary."""
    findings = list(findings)
    lines = [f.format() for f in findings]
    n_err = sum(1 for f in findings if f.severity == Severity.ERROR)
    n_warn = len(findings) - n_err
    if findings:
        lines.append(f"{n_err} error(s), {n_warn} warning(s)")
    else:
        lines.append("lint: clean")
    return "\n".join(lines)


def _sarif_rule(rule: Rule) -> dict:
    return {
        "id": rule.id,
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": " ".join(rule.rationale.split())},
        "help": {"text": rule.example.strip("\n")},
        "defaultConfiguration": {"level": rule.severity},
    }


def to_sarif(findings: Iterable[Finding]) -> dict:
    """The findings as a SARIF 2.1.0 document (one run, full rule catalog)."""
    rules = all_rules()
    index = {rule.id: i for i, rule in enumerate(rules)}
    results = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "ruleIndex": index.get(f.rule, -1),
            "level": f.severity,
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path.replace("\\", "/")},
                    "region": {"startLine": max(f.line, 1)},
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": [_sarif_rule(r) for r in rules],
                },
            },
            "results": results,
        }],
    }


def sarif_text(findings: Iterable[Finding]) -> str:
    """:func:`to_sarif` serialized as stable, indented JSON."""
    return json.dumps(to_sarif(findings), indent=2, sort_keys=False)
