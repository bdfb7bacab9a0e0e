"""Lint rule registry: the pluggable core of ``repro.analysis lint``.

Every check the linter can run is a :class:`Rule` — an id, a severity, a
one-line summary, a rationale, a worked example, and a ``check`` method
that walks one module's AST.  Rules self-register on import via
:func:`register`, so adding a pass means adding a module under
``repro.analysis.rules`` and nothing else: the CLI, the SARIF reporter,
``--explain`` and the docs catalog all iterate the registry.

A rule's ``check`` receives a :class:`LintContext` with the parsed tree,
the import-alias table, the source lines, and (when linting a whole tree)
the cross-file :class:`~repro.analysis.taint.TaintProject` built from
``# taint:`` annotations.  Findings are *raw*: pragma filtering happens
in the engine (:mod:`repro.analysis.lint`), so a rule never needs to know
about suppression.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..taint import TaintProject

__all__ = [
    "Severity",
    "Finding",
    "LintContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "rule_ids",
    "format_rule_table",
    "Aliases",
    "resolve_call_name",
]


class Severity:
    """Severity scale for lint rules (mirrors SARIF levels)."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One lint hit, tied to a file, line, and rule id."""

    path: str
    line: int
    rule: str
    message: str
    severity: str = Severity.ERROR

    def format(self) -> str:
        """Compiler-style one-liner: ``path:line: severity[rule] message``."""
        return f"{self.path}:{self.line}: {self.severity}[{self.rule}] {self.message}"


class Aliases(ast.NodeVisitor):
    """Collect ``import``/``from-import`` aliases of one module.

    Relative imports are resolved against ``module`` (the linted file's own
    dotted name) when known, so ``from ..obs import write_json`` inside
    ``repro.faults.chaos`` maps to ``repro.obs.write_json``.
    """

    def __init__(self, module: Optional[str] = None) -> None:
        self.module = module
        self.modules: dict[str, str] = {}  # local name -> dotted module
        self.names: dict[str, str] = {}    # local name -> dotted attribute

    def _rel_base(self, level: int) -> Optional[str]:
        if not self.module:
            return None
        parts = self.module.split(".")
        if level > len(parts):
            return None
        return ".".join(parts[:len(parts) - level]) or None

    def visit_Import(self, node: ast.Import) -> None:
        """Record `import x as y` aliases."""
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Record `from m import x as y` aliases (relative resolved)."""
        base = node.module
        if node.level:
            rel = self._rel_base(node.level)
            if rel is None:
                return
            base = f"{rel}.{node.module}" if node.module else rel
        if base is None:
            return
        for alias in node.names:
            self.names[alias.asname or alias.name] = f"{base}.{alias.name}"


def resolve_call_name(node: ast.AST, aliases: Aliases) -> Optional[str]:
    """Dotted name of a call target, through the module's import aliases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = node.id
    parts.reverse()
    if base in aliases.modules:
        return ".".join([aliases.modules[base], *parts])
    if base in aliases.names:
        return ".".join([aliases.names[base], *parts])
    return ".".join([base, *parts])


@dataclass
class LintContext:
    """Everything a rule may look at while checking one module."""

    path: str
    source: str
    tree: ast.AST
    lines: list[str]
    module: Optional[str] = None          # dotted module name, when derivable
    project: Optional["TaintProject"] = None  # cross-file annotation table

    _aliases: Optional[Aliases] = field(default=None, repr=False)

    @property
    def aliases(self) -> Aliases:
        """Import-alias table, built lazily and shared across rules."""
        if self._aliases is None:
            self._aliases = Aliases(self.module)
            self._aliases.visit(self.tree)
        return self._aliases

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted call-target name through this module's aliases."""
        return resolve_call_name(node, self.aliases)

    def line_text(self, lineno: int) -> str:
        """Source text of one 1-indexed line ('' when out of range)."""
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class for lint rules; subclasses fill the class attributes.

    ``id`` is the stable identifier used in pragmas, SARIF and docs.
    ``example`` shows one line that trips the rule and (after a blank
    line) the sanctioned alternative — ``--explain`` prints it.
    """

    id: str = ""
    severity: str = Severity.ERROR
    summary: str = ""        # one line, shown in the catalog table
    rationale: str = ""      # a paragraph: why this breaks MIC's guarantees
    example: str = ""        # bad / good snippet for --explain

    def check(self, ctx: LintContext) -> Iterator[Finding]:  # pragma: no cover
        """Yield raw findings for one module."""
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        """A finding for this rule anchored at a node's line."""
        return Finding(ctx.path, getattr(node, "lineno", 0), self.id,
                       message, self.severity)


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and add a rule to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    if rule.severity not in (Severity.ERROR, Severity.WARNING):
        raise ValueError(f"rule {rule.id}: bad severity {rule.severity!r}")
    if not (rule.summary and rule.rationale and rule.example):
        raise ValueError(f"rule {rule.id}: summary/rationale/example required")
    _REGISTRY[rule.id] = rule
    return rule_cls


def _load_builtin_rules() -> None:
    """Import the rule modules so their ``@register`` decorators run."""
    from . import determinism, encapsulation  # noqa: F401
    from .. import taint  # noqa: F401  (registers endpoint-leak)


def all_rules() -> list[Rule]:
    """Every registered rule, id-ordered (stable for reports and docs)."""
    _load_builtin_rules()
    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    """Sorted ids of every registered rule."""
    return [r.id for r in all_rules()]


def get_rule(rule_id: str) -> Rule:
    """One rule by id (KeyError with the known ids when absent)."""
    _load_builtin_rules()
    if rule_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
    return _REGISTRY[rule_id]


def format_rule_table() -> str:
    """The rule catalog as a markdown table (embedded in docs/analysis.md).

    ``tests/analysis/test_docs_analysis.py`` diffs this rendering against
    the docs both ways, so the catalog cannot go stale.
    """
    rows = [
        "| id | severity | summary |",
        "|---|---|---|",
    ]
    for rule in all_rules():
        rows.append(f"| `{rule.id}` | {rule.severity} | {rule.summary} |")
    return "\n".join(rows)


def format_rule_catalog() -> str:
    """The full catalog: one docs section per rule, with rationale/example.

    Like :func:`format_rule_table`, this rendering is embedded in
    ``docs/analysis.md`` between markers and exact-diffed by the test
    suite in both directions.
    """
    sections: list[str] = []
    for rule in all_rules():
        lines = [
            f"### `{rule.id}` ({rule.severity})",
            "",
            f"{rule.summary}.",
            "",
            " ".join(rule.rationale.split()),
            "",
            "```python",
        ]
        lines.extend(
            textwrap.dedent(rule.example.strip("\n")).splitlines()
        )
        lines.append("```")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def explain(rule_id: str) -> str:
    """Multi-line ``--explain`` rendering for one rule."""
    rule = get_rule(rule_id)
    lines = [
        f"{rule.id} ({rule.severity})",
        f"  {rule.summary}",
        "",
        "rationale:",
    ]
    for ln in rule.rationale.strip().splitlines():
        lines.append(f"  {ln.strip()}")
    lines.append("")
    lines.append("example:")
    for ln in rule.example.strip("\n").splitlines():
        lines.append(f"  {ln}")
    lines.append("")
    lines.append(f"suppress one line with `# lint: allow({rule.id})` or a "
                 f"whole file with `# lint: file-allow({rule.id})`.")
    return "\n".join(lines)
