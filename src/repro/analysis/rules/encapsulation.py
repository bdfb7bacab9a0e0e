"""Encapsulation rules: storage internals stay behind their view APIs.

PR 4 rebuilt :class:`~repro.net.flowtable.FlowTable` storage as tiered
tuple-space indexes behind a stable entry-view API and enforced the
boundary with a repo-grep test.  That test is now this AST rule: any
attribute access to the tiered-storage internals outside ``flowtable.py``
couples external code to the storage layout and blocks future storage
changes (sharding, array backing) from staying single-file.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator

from . import Finding, LintContext, Rule, Severity, register

#: FlowTable storage attributes private to flowtable.py
PRIVATE_STORAGE_ATTRS = frozenset({
    "_entries",
    "_groups",
    "_tiers",
    "_neg_prios",
    "_lookup_cache",
    "_flat",
    "_remove_where",
    "_version",  # read it through the public FlowTable.version
})

#: the one module allowed to touch the attributes above
OWNER_FILE = "flowtable.py"


@register
class FlowTableEncapsulationRule(Rule):
    """Flags FlowTable private-storage access outside its owner file."""

    id = "flowtable-encapsulation"
    severity = Severity.ERROR
    summary = "touches FlowTable tiered-storage internals outside flowtable.py"
    rationale = """
        Flow-table storage is private to flowtable.py: every consumer
        (analysis, obs, controllers, benches) must read tables through the
        entry-view API (iter_entries/entries/entries_at/priorities/
        conflicting_entries/groups).  Direct access to the tier dicts or
        the lookup cache couples external code to the storage layout, so a
        future storage change (sharding, array backing) stops being a
        single-file refactor.
    """
    example = """
        rules = switch.table._tiers[0]        # flagged: storage internals

        rules = switch.table.entries()        # the stable entry-view API
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        if pathlib.PurePath(ctx.path).name == OWNER_FILE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in PRIVATE_STORAGE_ATTRS:
                yield self.finding(
                    ctx, node,
                    f"FlowTable storage internal .{node.attr} accessed "
                    f"outside {OWNER_FILE}; use the entry-view API "
                    "(iter_entries/entries/entries_at/priorities/"
                    "conflicting_entries)",
                )
