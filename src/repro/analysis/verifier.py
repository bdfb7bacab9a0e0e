"""Static data-plane verifier for an installed :class:`Network` configuration.

Three layers of checks, all over the installed flow/group tables and none
requiring a single packet to be injected:

* **table-local** (:func:`verify_tables`) — shadowed/unreachable entries,
  same-priority overlaps with divergent actions, literal duplicates,
  dangling group references and dead output ports;
* **match-key uniqueness** (:func:`verify_match_keys`) — the MIC invariant
  of Sec IV-B3, re-proved from the installed rules themselves: no two
  owners (cookies) may share one ⟨src, dst, mpls, sport, dport⟩ key on a
  switch, optionally cross-checked against the runtime
  :class:`repro.core.collision.CollisionRegistry`;
* **forwarding graph** (:func:`verify_forwarding`) — rewrite-aware symbolic
  traversal from every installed rule, detecting loops that survive header
  rewriting (a header class returning to a switch it already crossed).

:func:`verify_network` bundles the layers and, given a Mimic Controller,
adds the per-m-flow intent checks from :mod:`repro.analysis.invariants`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..net.flowtable import FlowEntry, Group, Match
from ..net.network import Network
from .report import Severity, VerificationReport, Violation
from .symbolic import (
    CandidateIndex,
    SymbolicHeader,
    apply_actions,
    header_from_match,
    refine,
)

__all__ = [
    "verify_network",
    "verify_tables",
    "verify_match_keys",
    "verify_forwarding",
    "port_neighbor_map",
    "table_indexes",
    "match_key",
]

#: traversal budget per origin rule: states it may newly expand (a state
#: already proved clean by an earlier origin costs nothing), far above any
#: legal path; running out is reported as ``traversal-truncated``
_MAX_STATES_PER_ORIGIN = 512


def port_neighbor_map(net: Network) -> dict[tuple[str, int], str]:
    """Reverse the port wiring: (node, local port) → neighbor node name."""
    return {
        (node, port): neighbor
        for (node, neighbor), port in net.port_map.items()
    }


def match_key(match: Match) -> tuple:
    """The collision-registry key of a rule: ⟨src, dst, mpls, sport, dport⟩.

    String addresses and a ``None`` for "no shim" — exactly the form
    :class:`CollisionRegistry` records, so static and runtime bookkeeping
    compare bit-for-bit.
    """
    mpls = None if match.mpls == Match.NO_MPLS else match.mpls
    return (str(match.ip_src), str(match.ip_dst), mpls, match.sport, match.dport)


def table_indexes(net: Network) -> dict[str, CandidateIndex]:
    """A fresh :class:`CandidateIndex` per switch, by switch name.

    The layers below take one such map as ``indexes``; :func:`verify_network`
    builds it once and hands it to all of them (an index is a snapshot of
    its table and only memoizes what it derives from it).
    """
    return {sw.name: CandidateIndex(sw.table) for sw in net.switches()}


def _actions_equal(a: FlowEntry, b: FlowEntry) -> bool:
    return list(a.actions) == list(b.actions)


# ----------------------------------------------------------------------
# Layer 1: table-local checks
# ----------------------------------------------------------------------
def verify_tables(
    net: Network,
    report: VerificationReport,
    indexes: Optional[dict[str, CandidateIndex]] = None,
) -> None:
    """Per-switch structural checks on every installed table."""
    if indexes is None:
        indexes = table_indexes(net)
    neighbors = port_neighbor_map(net)
    for sw in net.switches():
        index = indexes[sw.name]
        # Entry-view snapshot: priority-desc, insertion order.
        entries = index.entries
        groups = index.groups
        report.checked_switches += 1
        report.checked_rules += len(entries)
        report.checked_groups += len(groups)

        for entry in entries:
            for action in entry.actions:
                if isinstance(action, Group) and action.group_id not in groups:
                    report.add(Violation(
                        kind="dangling-group",
                        message=(
                            f"rule on {sw.name} references group "
                            f"{action.group_id} which is not installed"
                        ),
                        switch=sw.name,
                        rule=entry.describe(),
                    ))
            for port, _hdr in _static_outputs(entry, groups):
                if (sw.name, port) not in neighbors:
                    report.add(Violation(
                        kind="dangling-port",
                        message=(
                            f"rule on {sw.name} outputs to port {port}, "
                            "which has no link behind it"
                        ),
                        switch=sw.name,
                        rule=entry.describe(),
                    ))

        # Only intersecting pairs can conflict; the index joins them out of
        # the table instead of testing every pair.
        for i, j in index.intersecting_pairs():
            _check_pair(sw.name, entries[i], entries[j], report)


def _static_outputs(entry: FlowEntry, groups) -> list[tuple[int, SymbolicHeader]]:
    result = apply_actions(entry.actions, header_from_match(entry.match), groups)
    return result.emissions


def _check_pair(
    switch: str, hi: FlowEntry, lo: FlowEntry, report: VerificationReport
) -> None:
    """Conflict analysis for one ordered entry pair (hi precedes lo)."""
    if not hi.match.intersects(lo.match):
        return
    if hi.match.covers(lo.match):
        if hi.priority == lo.priority:
            if _actions_equal(hi, lo):
                report.add(Violation(
                    kind="duplicate-rule",
                    severity=Severity.WARNING,
                    message=(
                        f"entry #{lo.entry_id} on {switch} is redundant: "
                        f"covered at equal priority by entry #{hi.entry_id} "
                        "with identical actions"
                    ),
                    switch=switch,
                    rule=lo.describe(),
                ))
            else:
                report.add(Violation(
                    kind="overlap",
                    message=(
                        f"same-priority rules on {switch} overlap with "
                        f"divergent actions; entry #{hi.entry_id} wins only "
                        f"by insertion order over #{lo.entry_id}"
                    ),
                    switch=switch,
                    rule=f"{hi.describe()}  vs  {lo.describe()}",
                ))
        else:
            report.add(Violation(
                kind="shadowed-rule",
                severity=(
                    Severity.ERROR
                    if not _actions_equal(hi, lo)
                    else Severity.WARNING
                ),
                message=(
                    f"entry #{lo.entry_id} on {switch} is unreachable: "
                    f"fully shadowed by higher-priority entry #{hi.entry_id}"
                ),
                switch=switch,
                rule=f"shadowed: {lo.describe()}  by: {hi.describe()}",
            ))
    elif hi.priority == lo.priority and not _actions_equal(hi, lo):
        report.add(Violation(
            kind="overlap",
            message=(
                f"same-priority rules on {switch} partially overlap with "
                f"divergent actions; packets in the intersection hit entry "
                f"#{hi.entry_id} only by insertion order (over #{lo.entry_id})"
            ),
            switch=switch,
            rule=f"{hi.describe()}  vs  {lo.describe()}",
        ))


# ----------------------------------------------------------------------
# Layer 2: MIC match-key uniqueness
# ----------------------------------------------------------------------
def verify_match_keys(
    net: Network,
    report: VerificationReport,
    priorities: Iterable[int],
    registry=None,
) -> None:
    """No two owners may install the same match key on one switch.

    ``priorities`` selects the MIC-managed rules (m-flow + decoy-drop
    bands).  With a ``registry``, every installed key must also be known to
    the runtime :class:`CollisionRegistry` — the static proof and the
    dynamic defence-in-depth bookkeeping must agree.
    """
    prios = sorted(set(priorities), reverse=True)
    for sw in net.switches():
        by_key: dict[tuple, list[FlowEntry]] = {}
        # The per-priority entry view selects exactly the MIC-managed bands
        # without scanning the (potentially huge) rest of the table.
        for prio in prios:
            for entry in sw.table.entries_at(prio):
                by_key.setdefault(match_key(entry.match), []).append(entry)
        for key, owners in by_key.items():
            cookies = {e.cookie for e in owners}
            if len(cookies) > 1:
                rendered = "  |  ".join(e.describe() for e in owners)
                report.add(Violation(
                    kind="duplicate-match-key",
                    message=(
                        f"match key {key} on {sw.name} is installed by "
                        f"{len(cookies)} distinct flows "
                        f"(cookies {sorted(f'{c:#x}' for c in cookies)})"
                    ),
                    switch=sw.name,
                    rule=rendered,
                ))
            if registry is not None and registry.owner(sw.name, key) is None:
                report.add(Violation(
                    kind="registry-mismatch",
                    message=(
                        f"match key {key} is installed on {sw.name} but "
                        "unknown to the collision registry"
                    ),
                    switch=sw.name,
                    rule=owners[0].describe(),
                ))


# ----------------------------------------------------------------------
# Layer 3: rewrite-aware forwarding-graph traversal
# ----------------------------------------------------------------------
def verify_forwarding(
    net: Network,
    report: VerificationReport,
    indexes: Optional[dict[str, CandidateIndex]] = None,
) -> None:
    """Detect forwarding loops from every installed rule.

    Each rule seeds a traversal with the header class of its own match;
    the class is pushed through the rule's rewrites and followed across
    links, refining through every rule it could hit downstream.  A header
    class revisiting a switch state already on the current path is a loop —
    rewrites are part of the state, so "A rewrites to B, B rewrites back to
    A" two switches apart is caught, not just port-level cycles.

    A state's successors depend on the state alone, so a subtree explored to
    the end without meeting a loop is skipped by every later origin; loops
    are still reported once per origin that reaches them.  An origin that
    would have to expand more than ``_MAX_STATES_PER_ORIGIN`` new states
    stops there and says so with a ``traversal-truncated`` warning.
    """
    if indexes is None:
        indexes = table_indexes(net)
    search = _LoopSearch(net, report, indexes)
    for switch, index in search.indexes.items():
        for origin in index.entries:
            search.trace(switch, origin)


class _LoopSearch:
    """The depth-first loop search, one :meth:`trace` per origin rule.

    ``clean`` outlives the origins: it holds the states whose whole subtree
    was explored, loop-free and within budget.  Every successor of a clean
    state is clean and no clean state lies on a cycle, so a later path that
    reaches one can neither loop below it nor return through it to one of
    its own ancestors — skipping it loses no finding.  A subtree that
    reported a loop or was cut short is never marked, so each origin that
    reaches it explores (and reports) it again.
    """

    def __init__(
        self,
        net: Network,
        report: VerificationReport,
        indexes: dict[str, CandidateIndex],
    ) -> None:
        self.report = report
        self.port_map = net.port_map
        self.neighbors = port_neighbor_map(net)
        self.indexes = indexes
        self.clean: set[tuple] = set()

    def trace(self, origin_switch: str, origin: FlowEntry) -> None:
        """Follow the header class of ``origin``'s match from its switch."""
        self.origin_switch = origin_switch
        self.origin = origin
        #: states this origin expanded; those not in ``clean`` once finished
        #: lead to a loop or a cut and were reported when first explored
        self.visited: set[tuple] = set()
        #: the states on the current branch — diamonds (reconvergence) are
        #: pruned through ``visited``, not reported as loops
        self.path: set[tuple] = set()
        self.budget = _MAX_STATES_PER_ORIGIN
        self.truncated = False
        self._dfs(origin_switch, header_from_match(origin.match))
        if self.truncated:
            self.report.add(Violation(
                kind="traversal-truncated",
                severity=Severity.WARNING,
                message=(
                    f"loop traversal seeded by rule on {origin_switch} gave "
                    f"up after expanding {_MAX_STATES_PER_ORIGIN} states; "
                    "what lies beyond them was not explored from this rule"
                ),
                switch=origin_switch,
                rule=origin.describe(),
            ))

    def _dfs(self, node: str, hdr: SymbolicHeader) -> bool:
        """True iff everything below ``(node, hdr)`` was explored and is
        loop-free."""
        index = self.indexes.get(node)
        if index is None:  # host: traffic leaves the fabric here
            return True
        state = (node, hdr)  # the header is its own key
        if state in self.path:
            self.report.add(Violation(
                kind="loop",
                message=(
                    f"forwarding loop: header {hdr.describe()} returns to "
                    f"{node} (seeded by rule on {self.origin_switch})"
                ),
                switch=node,
                rule=self.origin.describe(),
            ))
            return False
        if state in self.clean:
            return True
        if state in self.visited:
            return False
        if self.budget <= 0:
            self.truncated = True
            return False
        self.budget -= 1
        self.visited.add(state)
        self.path.add(state)
        clean = True
        for entry in index.candidates(hdr):
            refined = refine(entry.match, hdr)
            result = apply_actions(entry.actions, refined, index.groups)
            for port, out_hdr in result.emissions:
                peer = self.neighbors.get((node, port))
                if peer is None:
                    continue  # dead port; verify_tables reports it
                next_hdr = out_hdr.with_field(
                    "in_port",
                    self.port_map.get((peer, node), out_hdr.in_port),
                )
                if not self._dfs(peer, next_hdr):
                    clean = False
        self.path.discard(state)
        if clean:
            self.clean.add(state)
        return clean


# ----------------------------------------------------------------------
# Bundle
# ----------------------------------------------------------------------
def verify_network(
    net: Network,
    mic=None,
    registry=None,
    check_tables: bool = True,
    check_forwarding: bool = True,
    check_intents: bool = True,
    mic_priorities: Optional[Iterable[int]] = None,
) -> VerificationReport:
    """Statically verify an installed network configuration.

    ``mic`` (a :class:`repro.core.controller.MimicController`, duck-typed)
    unlocks the intent-level invariants: per-m-flow rewrite-chain replay,
    plaintext-leak and partial-multicast checks, MAGA class membership, and
    the registry cross-check (``registry`` defaults to ``mic.planner.registry``).
    Every layer reads the same per-switch :class:`CandidateIndex`, built
    once here.
    """
    report = VerificationReport()
    if registry is None and mic is not None:
        registry = mic.planner.registry
    if mic_priorities is None:
        from ..core.controller import DECOY_DROP_PRIORITY, MIC_PRIORITY
        mic_priorities = (MIC_PRIORITY, DECOY_DROP_PRIORITY)

    check_intents = check_intents and mic is not None
    indexes = (
        table_indexes(net)
        if check_tables or check_forwarding or check_intents
        else None
    )
    if check_tables:
        verify_tables(net, report, indexes)
    verify_match_keys(net, report, mic_priorities, registry=registry)
    if check_forwarding:
        verify_forwarding(net, report, indexes)
    if check_intents:
        from .invariants import verify_intents
        verify_intents(net, mic, report, indexes)
    return report
