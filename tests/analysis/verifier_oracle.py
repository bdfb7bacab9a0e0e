"""The scans ``repro.analysis`` ran before it indexed its tables.

Kept as the test oracle (and the baseline of
``benchmarks/bench_verifier.py``): the linear ``candidate_entries`` /
``winner_entry`` scans, the all-pairs ``verify_tables`` loop and the
per-origin, memo-less loop DFS, as they were.  The indexed verifier must
produce the same violations — same order, same message text — and the same
``checked_*`` counts as :func:`verify_network` here.

The edits against the replaced code: a field update goes through
``with_field`` (``SymbolicHeader`` is no longer a dataclass); the parts that
did not change are called where they live now (``verify_match_keys``, the
per-pair and per-entry checks, and the intent replays, which are handed a
per-switch object that answers ``winner`` by the linear scan); and the loop
DFS counts the origins whose budget ran out — the old code gave up silently
and charged every visit, the new one reports it and charges new states only,
so reports are only comparable when ``truncated == 0``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis import invariants, verifier
from repro.analysis.report import VerificationReport, Violation
from repro.analysis.symbolic import (
    apply_actions,
    could_match,
    header_from_match,
    must_match,
    refine,
)
from repro.net.flowtable import FlowEntry, Group

MAX_STATES_PER_ORIGIN = 512


def winner_entry(entries: Iterable[FlowEntry], hdr) -> Optional[FlowEntry]:
    """The entry a fully-concrete header would hit, or None on table miss."""
    for entry in entries:
        if could_match(entry.match, hdr):
            return entry
    return None


def candidate_entries(entries: Iterable[FlowEntry], hdr) -> list[FlowEntry]:
    """Entries some packet of ``hdr`` could hit, in priority order, up to and
    including the first that must match."""
    out: list[FlowEntry] = []
    for entry in entries:
        if could_match(entry.match, hdr):
            out.append(entry)
            if must_match(entry.match, hdr):
                break
    return out


def verify_tables(net, report: VerificationReport) -> None:
    """Per-switch structural checks, comparing every ordered entry pair."""
    neighbors = verifier.port_neighbor_map(net)
    for sw in net.switches():
        entries = list(sw.table.iter_entries())
        groups = sw.table.groups
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
            for port, _hdr in verifier._static_outputs(entry, groups):
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

        for i, hi in enumerate(entries):
            for lo in entries[i + 1:]:
                verifier._check_pair(sw.name, hi, lo, report)


def verify_forwarding(net, report: VerificationReport) -> int:
    """Loop search from every rule, nothing shared between origins.

    Returns how many origins ran out of budget (and silently stopped).
    """
    neighbors = verifier.port_neighbor_map(net)
    tables = {sw.name: sw.table for sw in net.switches()}
    truncated = 0
    for sw in net.switches():
        for origin in sw.table.iter_entries():
            truncated += _trace_origin(
                net, sw.name, origin, tables, neighbors, report
            )
    return truncated


def _trace_origin(net, origin_switch, origin, tables, neighbors, report) -> bool:
    start = header_from_match(origin.match)
    visited: set[tuple] = set()
    budget = MAX_STATES_PER_ORIGIN
    exhausted = False

    def dfs(node, hdr, path: frozenset) -> None:
        nonlocal budget, exhausted
        if budget <= 0:
            exhausted = True
            return
        budget -= 1
        state = (node, hdr.key())
        if state in path:
            report.add(Violation(
                kind="loop",
                message=(
                    f"forwarding loop: header {hdr.describe()} returns to "
                    f"{node} (seeded by rule on {origin_switch})"
                ),
                switch=node,
                rule=origin.describe(),
            ))
            return
        if state in visited:
            return
        visited.add(state)
        table = tables.get(node)
        if table is None:  # host: traffic leaves the fabric here
            return
        for entry in candidate_entries(table.iter_entries(), hdr):
            refined = refine(entry.match, hdr)
            result = apply_actions(entry.actions, refined, table.groups)
            for port, out_hdr in result.emissions:
                peer = neighbors.get((node, port))
                if peer is None:
                    continue  # dead port; verify_tables reports it
                next_hdr = out_hdr.with_field(
                    "in_port",
                    net.port_map.get((peer, node), out_hdr.in_port),
                )
                dfs(peer, next_hdr, path | {state})

    dfs(origin_switch, start, frozenset())
    return exhausted


class _LinearTable:
    """What the intent replays ask of a table, answered by the linear scan."""

    def __init__(self, table) -> None:
        self._table = table

    @property
    def groups(self):
        return self._table.groups

    def winner(self, hdr) -> Optional[FlowEntry]:
        return winner_entry(self._table.iter_entries(), hdr)


def verify_intents(net, mic, report: VerificationReport) -> None:
    """The per-m-flow replays with every hop resolved by ``winner_entry``.

    The replay logic itself did not change, so it is the library's
    (``invariants._replay_direction`` / ``_trace_decoy`` / ``_verify_maga``);
    only the per-switch lookup object handed to it is the old scan.
    """
    tables = {sw.name: _LinearTable(sw.table) for sw in net.switches()}
    neighbors = verifier.port_neighbor_map(net)
    for channel in mic.channels.values():
        for plan in channel.flows:
            report.checked_flows += 1
            invariants._verify_maga(mic, channel, plan, report)
            for walk, _mns, addrs in mic.strategy.replay_views(plan):
                invariants._replay_direction(
                    net, mic, channel, plan, walk, addrs, tables, neighbors,
                    report,
                )


def verify_network(net, mic=None) -> tuple[VerificationReport, int]:
    """All layers by the old scans: ``(report, origins truncated)``."""
    from repro.core.controller import DECOY_DROP_PRIORITY, MIC_PRIORITY

    report = VerificationReport()
    registry = getattr(mic, "registry", None)
    verify_tables(net, report)
    verifier.verify_match_keys(
        net, report, (MIC_PRIORITY, DECOY_DROP_PRIORITY), registry=registry
    )
    truncated = verify_forwarding(net, report)
    if mic is not None:
        verify_intents(net, mic, report)
    return report, truncated
