"""The pluggable lint engine: ``python -m repro.analysis lint [paths...]``.

A discrete-event simulation of an anonymity system is only trustworthy
when two properties hold *by construction*: one seed gives exactly one
trace, and plaintext endpoint identities never escape the sanctioned
rewrite boundaries.  The engine runs every rule in the
:mod:`repro.analysis.rules` registry — determinism rules, the FlowTable
encapsulation boundary, and the :mod:`~repro.analysis.taint` anonymity
pass — over the AST of each file (the linted code is never imported).

A finding is exempt only by a pragma in the code it names:

* ``# lint: allow(rule-a, rule-b)`` on the offending line;
* ``# lint: file-allow(rule)`` anywhere in a file (whole-file opt-out,
  for e.g. the benchmark package's wall-clock timing).

``--explain <rule>`` prints a rule's rationale and worked example;
``--format sarif`` emits SARIF 2.1.0 for code-host ingestion.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path, PurePath
from typing import Iterable, Optional, Sequence

from .reporters import format_text, sarif_text
from .rules import Finding, LintContext, Rule, all_rules, explain, rule_ids
from .taint import TaintProject, collect_project

__all__ = [
    "Finding",
    "lint_source",
    "lint_paths",
    "main",
]

_PRAGMA = re.compile(r"#\s*lint:\s*allow\(([\w, -]+)\)")
_FILE_PRAGMA = re.compile(r"#\s*lint:\s*file-allow\(([\w, -]+)\)")


def module_name_for(path: str) -> Optional[str]:
    """Dotted module of a source path, trimmed at the last ``src`` segment.

    ``/repo/src/repro/obs/exporters.py`` → ``repro.obs.exporters``;
    paths outside an ``src`` layout fall back to any ``repro`` segment;
    anything else returns None (relative imports stay unresolved).
    """
    parts = list(PurePath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    anchor = None
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "src":
            anchor = i + 1
            break
    if anchor is None:
        for i, part in enumerate(parts):
            if part == "repro":
                anchor = i
                break
    if anchor is None or anchor >= len(parts):
        return None
    mod_parts = parts[anchor:]
    if mod_parts and mod_parts[-1] == "__init__":
        mod_parts = mod_parts[:-1]
    return ".".join(mod_parts) or None


def _allowed_rules(pragma_match: Optional[re.Match]) -> set[str]:
    if not pragma_match:
        return set()
    return {part.strip() for part in pragma_match.group(1).split(",")}


def _file_allowed(source: str) -> set[str]:
    """Rules suppressed file-wide via ``# lint: file-allow(...)``."""
    allowed: set[str] = set()
    for m in _FILE_PRAGMA.finditer(source):
        allowed |= _allowed_rules(m)
    return allowed


def _line_allowed(line_text: str, rule: str) -> bool:
    allowed = _allowed_rules(_PRAGMA.search(line_text))
    return rule in allowed or "all" in allowed


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    project: Optional[TaintProject] = None,
) -> list[Finding]:
    """Run the registry over one module's source; findings line-ordered.

    Per-line and per-file pragmas are applied here.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "parse-error",
                        f"could not parse: {exc.msg}")]
    if module is None:
        module = module_name_for(path)
    ctx = LintContext(
        path=path, source=source, tree=tree,
        lines=source.splitlines(), module=module, project=project,
    )
    file_allowed = _file_allowed(source)
    findings: list[Finding] = []
    for rule in (rules if rules is not None else all_rules()):
        if rule.id in file_allowed or "all" in file_allowed:
            continue
        for finding in rule.check(ctx):
            if _line_allowed(ctx.line_text(finding.line), finding.rule):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def _collect_files(paths: Iterable[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    return files


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> list[Finding]:
    """Lint every ``*.py`` file under the given files/directories.

    Runs in two phases: first the ``# taint:`` annotations of *all* files
    are collected into one :class:`TaintProject` (so a sink defined in
    ``repro.obs`` is honoured everywhere), then each file is linted.
    """
    files = _collect_files(paths)
    sources = [(str(f), f.read_text(encoding="utf-8")) for f in files]
    project = collect_project(sources)
    findings: list[Finding] = []
    for file_path, text in sources:
        findings.extend(
            lint_source(text, file_path, rules=rules, project=project)
        )
    return findings


def build_parser() -> argparse.ArgumentParser:
    """The `lint` subcommand's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis lint",
        description="pluggable determinism + anonymity lint for the tree",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="write the report here instead of stdout",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print one rule's rationale and example, then exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rule ids and summaries, then exit",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; exit 1 on findings, 2 on usage."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:26s} {rule.severity:8s} {rule.summary}")
        return 0
    if args.explain:
        try:
            print(explain(args.explain))
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0

    rules: Optional[list[Rule]] = None
    if args.select:
        wanted = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = wanted - set(rule_ids())
        if unknown:
            print(f"error: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [r for r in all_rules() if r.id in wanted]

    try:
        findings = lint_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = (
        sarif_text(findings) if args.format == "sarif"
        else format_text(findings)
    )
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        if args.format == "sarif":
            # keep the terminal summary even when SARIF goes to a file
            print(format_text(findings))
    else:
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
