"""Encapsulation rules: storage internals stay behind their view APIs,
private books with their owner (:class:`PrivateStateRule`), and the
package inside its import budget (:class:`ThirdPartyImportRule`).

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
import sys
from typing import Iterator

from . import Finding, LintContext, Rule, Severity, register

#: FlowTable storage attributes: each is private to flowtable.py
FLOWTABLE_STORAGE = dict.fromkeys(
    ("_entries", "_groups", "_tiers", "_neg_prios", "_lookup_cache", "_flat",
     "_remove_where"),
    "net/flowtable.py",
)

#: private books outside FlowTable: attribute -> the one module owning it
PRIVATE_STATE_OWNERS = {
    "_rng_streams": "sim/engine.py",  # the simulator's named stream table
    "_live": "core/collision.py",  # FlowIdAllocator's live flow ids
}

#: top-level modules ``repro`` may import besides the standard library
IMPORT_BUDGET = frozenset({"repro", "numpy"})


class _OwnedAttributeRule(Rule):
    """Flags an attribute of ``owners`` touched outside its owning module."""

    owners: dict[str, str]
    hint: str

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        path = pathlib.PurePath(ctx.path).as_posix()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                owner = self.owners.get(node.attr)
                if owner is not None and not path.endswith(owner):
                    yield self.finding(
                        ctx, node, f".{node.attr} is private to {owner}; {self.hint}",
                    )


@register
class FlowTableEncapsulationRule(_OwnedAttributeRule):
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
    owners = FLOWTABLE_STORAGE
    hint = ("use the entry-view API (iter_entries/entries/entries_at/"
            "priorities/conflicting_entries)")


@register
class PrivateStateRule(_OwnedAttributeRule):
    """Flags the simulator's stream table or the live flow-id set touched
    outside the module that owns it."""

    id = "private-state"
    severity = Severity.ERROR
    summary = "touches the simulator's stream table or the live flow-id set outside its owner"
    rationale = """
        The simulator's stream table and the flow-ID allocator's live set
        have one owner each.  Popping a stream or clearing ids from outside
        skips the owner's rules and hides who holds what, which is how
        per-flow state leaks unseen.  Ask the owner: ``Simulator.fresh_rng``
        for a stream only its holder keeps, ``FlowIdAllocator.release``.
    """
    example = """
        sim._rng_streams.pop(name)            # flagged: the simulator's table

        rng = sim.fresh_rng(name)             # a stream its holder keeps
    """
    owners = PRIVATE_STATE_OWNERS
    hint = "use its owner's public calls"


@register
class ThirdPartyImportRule(Rule):
    """Flags imports in ``repro`` of anything but stdlib, numpy, itself."""

    id = "third-party-import"
    severity = Severity.ERROR
    summary = "repro imports a package outside its budget (stdlib + numpy)"
    rationale = """
        Whatever a repro module imports stays resident in every process
        that runs a simulation: a graph library used for one class and two
        functions cost 285 modules, a fifth of the cold start and 15 MB of
        every workload's peak RSS.  Anything beyond the standard library
        and numpy — at module level or inside a function — belongs in
        tests/ or benchmarks/, or is small enough to own.
    """
    example = """
        import scipy.sparse                   # flagged: outside the budget

        import numpy as np                    # the one third-party dependency
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        if not ctx.module or ctx.module.split(".")[0] != "repro":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top not in IMPORT_BUDGET:
                    yield self.finding(
                        ctx, node,
                        f"import of {module!r}: repro's runtime dependencies "
                        "are the standard library and numpy",
                    )
