"""Anonymity-leak taint pass: endpoint identities must not reach sinks.

MIC's core guarantee is that plaintext endpoint identities (real host
addresses, ``Packet.ip_src``/``ip_dst``-derived values, MAGA pre-images)
never appear outside the edge segment — the data plane enforces it by
rewriting, and :mod:`repro.analysis.verifier` proves it for installed
rules.  This pass closes the remaining gap: the *code around* the data
plane.  An exporter that logs a raw host address, a metric label built
from ``ip_dst``, or an exception message carrying the real source ships a
de-anonymization primitive the rule tables never see (PINOT-style
metadata-leak work shows how little an observer needs).

The pass is an intraprocedural AST dataflow, one scope at a time:

* **sources** taint an expression — attribute reads of endpoint identity
  fields (:data:`SOURCE_ATTRS`), identity-bearing calls
  (:data:`SOURCE_CALLS`, e.g. ``pkt.five_tuple()``), and names listed in
  :data:`SOURCE_NAMES` (MAGA pre-image conventions);
* **propagation** follows assignments, f-strings, concatenation,
  containers, subscripts and ordinary calls;
* **boundaries** launder taint — the sanctioned rewrite/hash functions
  (:data:`BOUNDARY_CALLS`: ``content_tag`` hashing via ``zlib.crc32``,
  MAGA ``solve``/m-address encoding, explicit ``redact``/``anonymize``
  helpers) plus anything annotated ``# taint: boundary``;
* **sinks** report a finding when reached by tainted data — logging,
  ``print``, ``warnings``, stderr writes, JSON serialization, exception
  constructors in ``raise``, and every function annotated
  ``# taint: sink`` (the :mod:`repro.obs` metric exporters and the
  journey and Perfetto writers carry these annotations).

Annotations are collected project-wide before linting, so a sink defined
in ``repro.obs.exporters`` is honoured in every file that calls it.
``verify-network`` merges the pass's findings into its report — the
static data-plane proof and the code-level leak scan share one gate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .rules import Finding, LintContext, Rule, Severity, register

__all__ = [
    "SOURCE_ATTRS",
    "SOURCE_NAMES",
    "SOURCE_CALLS",
    "BOUNDARY_CALLS",
    "TaintProject",
    "collect_project",
    "EndpointLeakRule",
]

#: attribute reads that introduce a plaintext endpoint identity
SOURCE_ATTRS = frozenset({
    "ip_src", "ip_dst",      # Packet L3 endpoints (pre-rewrite identities)
    "eth_src", "eth_dst",    # Packet L2 endpoints
    "real_src", "real_dst",  # pre-rewrite identities kept on plans/intents
})

#: bare names that carry MAGA pre-images by convention
SOURCE_NAMES = frozenset({"preimage", "pre_image"})

#: method calls whose return value embeds endpoint identities
SOURCE_CALLS = frozenset({"five_tuple", "match_tuple"})

#: call targets (matched on the last dotted component) that launder taint —
#: the sanctioned rewrite/hash boundaries of the reproduction
BOUNDARY_CALLS = frozenset({
    "content_tag",        # content-tag fingerprinting
    "crc32",              # the stable hash convention behind content tags
    "solve",              # MAGA m-address encoding (ReversibleHash.solve)
    "m_addr_for",         # per-MN m-address draw
    "anonymize",
    "redact",
    # identity-destroying conversions
    "len", "bool", "isinstance", "type", "hash",
})

#: logging-style method names (sink when the receiver looks like a logger)
_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "critical", "exception",
    "log",
})

_ANNOTATION = re.compile(r"#\s*taint:\s*(sink|boundary|source)\b")


@dataclass
class TaintProject:
    """Cross-file annotation table: function names marked sink/boundary.

    Names are matched on the last dotted component of a resolved call, so
    ``from ..obs import write_json; write_json(x)`` honours the
    ``# taint: sink`` annotation on ``repro.obs.exporters.write_json``.
    Annotated names should therefore be distinctive module-level helpers,
    not generic method names.
    """

    sinks: set = field(default_factory=set)
    boundaries: set = field(default_factory=set)
    sources: set = field(default_factory=set)


def _annotation_on(lines: list[str], lineno: int) -> Optional[str]:
    """The ``# taint:`` kind on a 1-indexed line, or on the line above."""
    for ln in (lineno, lineno - 1):
        if 0 < ln <= len(lines):
            m = _ANNOTATION.search(lines[ln - 1])
            if m:
                return m.group(1)
    return None


def collect_project(sources: list[tuple[str, str]]) -> TaintProject:
    """Scan ``(path, source)`` pairs for ``# taint:`` function annotations.

    A ``# taint: sink`` / ``# taint: boundary`` / ``# taint: source``
    comment on a ``def`` line (or the line directly above it) adds that
    function's name to the project-wide table.
    """
    project = TaintProject()
    buckets = {"sink": project.sinks, "boundary": project.boundaries,
               "source": project.sources}
    for path, text in sources:
        if "# taint:" not in text:
            continue
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError:
            continue
        lines = text.splitlines()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = _annotation_on(lines, node.lineno)
                if kind:
                    buckets[kind].add(node.name)
    return project


_EMPTY_PROJECT = TaintProject()


def _last(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


class _ScopeChecker:
    """Forward taint interpretation of one scope (module or function body)."""

    def __init__(self, ctx: LintContext, rule: "EndpointLeakRule",
                 project: TaintProject):
        self.ctx = ctx
        self.rule = rule
        self.project = project
        self.tainted: set[str] = set()
        self.findings: dict[tuple[int, str], Finding] = {}

    # -- classification ------------------------------------------------
    def _is_boundary(self, call: ast.Call) -> bool:
        dotted = self.ctx.resolve(call.func)
        if dotted is None:
            return False
        last = _last(dotted)
        return last in BOUNDARY_CALLS or last in self.project.boundaries

    def _sink_kind(self, call: ast.Call) -> Optional[str]:
        """What kind of sink a call is, or None."""
        dotted = self.ctx.resolve(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        last = parts[-1]
        if dotted in ("print", "pprint.pprint"):
            return "console output"
        if dotted in ("warnings.warn",):
            return "warning message"
        if dotted in ("json.dump", "json.dumps"):
            return "JSON serialization"
        if dotted.endswith("stderr.write") or dotted.endswith("stdout.write"):
            return "stream write"
        if last in _LOG_METHODS and any("log" in p.lower() for p in parts[:-1]):
            return "log call"
        if last in self.project.sinks:
            return f"annotated sink {last}()"
        return None

    # -- taint evaluation ----------------------------------------------
    def _tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted or node.id in SOURCE_NAMES \
                or node.id in self.project.sources
        if isinstance(node, ast.Attribute):
            if node.attr in SOURCE_ATTRS:
                return True
            return self._tainted(node.value)
        if isinstance(node, ast.Call):
            if self._is_boundary(node):
                return False
            dotted = self.ctx.resolve(node.func)
            if dotted is not None and _last(dotted) in SOURCE_CALLS:
                return True
            if any(self._tainted(a) for a in node.args):
                return True
            if any(self._tainted(kw.value) for kw in node.keywords):
                return True
            # a method on a tainted object returns tainted data
            if isinstance(node.func, ast.Attribute):
                return self._tainted(node.func.value)
            return False
        if isinstance(node, ast.JoinedStr):
            return any(self._tainted(v) for v in node.values)
        if isinstance(node, ast.FormattedValue):
            return self._tainted(node.value)
        if isinstance(node, ast.BinOp):
            return self._tainted(node.left) or self._tainted(node.right)
        if isinstance(node, ast.BoolOp):
            return any(self._tainted(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return self._tainted(node.operand)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._tainted(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            return any(self._tainted(v) for v in node.values if v is not None) \
                or any(self._tainted(k) for k in node.keys if k is not None)
        if isinstance(node, ast.Subscript):
            return self._tainted(node.value)
        if isinstance(node, ast.Starred):
            return self._tainted(node.value)
        if isinstance(node, ast.IfExp):
            return self._tainted(node.body) or self._tainted(node.orelse)
        if isinstance(node, (ast.Await, ast.NamedExpr)):
            return self._tainted(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return any(self._tainted(g.iter) for g in node.generators) \
                or self._tainted(node.elt)
        if isinstance(node, ast.DictComp):
            return any(self._tainted(g.iter) for g in node.generators) \
                or self._tainted(node.key) or self._tainted(node.value)
        return False

    def _describe(self, node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expression>"

    # -- statement interpretation --------------------------------------
    def _bind(self, target: ast.AST, tainted: bool) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tainted)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tainted)
        # attribute/subscript targets: object-granularity tracking is out of
        # scope for an intraprocedural pass; the attribute read side covers
        # the identity-bearing fields.

    def _emit(self, call: ast.AST, arg: ast.AST, sink: str) -> None:
        message = (
            f"endpoint identity {self._describe(arg)!r} reaches {sink} "
            "without passing a sanctioned rewrite/hash boundary "
            "(content_tag / MAGA encode / redact)"
        )
        f = self.rule.finding(self.ctx, call, message)
        self.findings.setdefault((f.line, f.message), f)

    def _check_calls(self, stmt: ast.stmt) -> None:
        """Flag sink calls inside one statement (nested scopes excluded)."""
        for node in _walk_same_scope(stmt):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_kind(node)
            if sink is None:
                continue
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if self._tainted(arg):
                    self._emit(node, arg, sink)
                    break

    def run(self, body: list[ast.stmt]) -> None:
        """One forward pass; loops converge via their double body visit."""
        self._visit_body(body)

    def _visit_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are checked independently
        self._check_calls(stmt)
        if isinstance(stmt, ast.Assign):
            tainted = self._tainted(stmt.value)
            for target in stmt.targets:
                self._bind(target, tainted)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._tainted(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                if self._tainted(stmt.value) or self._tainted(stmt.target):
                    self.tainted.add(stmt.target.id)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._tainted(stmt.iter))
            # Loop bodies run twice so loop-carried taint converges (a
            # variable tainted late in the body is seen by earlier
            # statements on the second visit); findings dedupe by line.
            self._visit_body(stmt.body)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_body(stmt.body)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars,
                               self._tainted(item.context_expr))
            self._visit_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._visit_body(stmt.orelse)
            self._visit_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            self._check_raise(stmt)

    def _check_raise(self, stmt: ast.Raise) -> None:
        exc = stmt.exc
        if not isinstance(exc, ast.Call):
            return
        for arg in [*exc.args, *[kw.value for kw in exc.keywords]]:
            if self._tainted(arg):
                self._emit(exc, arg, "an exception message")
                break


def _walk_same_scope(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class defs."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


def _scopes(tree: ast.AST) -> Iterator[list[ast.stmt]]:
    """Every scope body in a module: the module itself, then each def."""
    yield tree.body  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


@register
class EndpointLeakRule(Rule):
    """The taint pass: plaintext endpoint identities must not reach sinks."""

    id = "endpoint-leak"
    severity = Severity.ERROR
    summary = "plaintext endpoint identity flows into a log/export/exception sink"
    rationale = """
        MIC's anonymity rests on real endpoint addresses never escaping
        past the edge MN rewrite.  The verifier proves that for installed
        rules, but a log line, metric label, serialized trace or exception
        message carrying ip_src/ip_dst (or a MAGA pre-image) leaks the
        same identity out-of-band — stateless-obfuscation work (PINOT)
        shows such metadata is enough to re-identify flows.  Route
        identity through a sanctioned boundary (content_tag hashing, MAGA
        m-address encode, an explicit redact helper) before emitting it.
    """
    example = """
        log.info(f"flow from {pkt.ip_src}")         # flagged: raw identity

        log.info(f"flow tag {pkt.content_tag}")     # rewrite-surviving tag
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        project = ctx.project if ctx.project is not None else _EMPTY_PROJECT
        for body in _scopes(ctx.tree):
            checker = _ScopeChecker(ctx, self, project)
            checker.run(body)
            yield from checker.findings.values()
