"""MIC-specific intent invariants: prove each planned m-flow end to end.

Given the Mimic Controller's channel bookkeeping (its
:class:`~repro.core.channel.MFlowPlan` objects) and the installed tables,
these checks *replay* every m-flow symbolically — no packets injected — and
prove, per direction:

* **rewrite-chain consistency** — every hop carries exactly the planned
  per-segment m-address ⟨src, dst, sport, dport, mpls⟩; each MN hop rewrites
  into the next segment's address and the egress MN restores the real
  receiver (Sec IV-B2);
* **delivery** — the flow terminates at the planned endpoint host, never a
  table miss (blackhole), a silent drop, a punt, or a loop;
* **no plaintext-endpoint leak** — the initiator's real address appears only
  on the first segment and the receiver's only on the delivery segment
  (Sec IV-A1: the entry address "hides the address of the responder");
* **partial-multicast sanity** — decoy replicas fork at the first MN, die at
  an explicit drop rule, and never reach a real host — least of all the
  real receiver or its pod (Sec IV-C);
* **MAGA class membership** — every label was written by the MN that owns
  it, and the full tuple classifies back to the flow's live ID under that
  MN's four-variable hash (Sec IV-B3).
"""

from __future__ import annotations

from typing import Optional

from ..net.network import Network
from .report import Severity, VerificationReport, Violation
from .symbolic import CandidateIndex, SymbolicHeader, apply_actions
from .verifier import port_neighbor_map, table_indexes

__all__ = ["verify_intents"]


def verify_intents(
    net: Network,
    mic,
    report: VerificationReport,
    indexes: Optional[dict[str, CandidateIndex]] = None,
) -> None:
    """Replay every live m-flow of ``mic`` against the installed tables."""
    if indexes is None:
        indexes = table_indexes(net)
    neighbors = port_neighbor_map(net)
    for channel in mic.channels.values():
        for plan in channel.flows:
            report.checked_flows += 1
            _verify_maga(mic, channel, plan, report)
            # The anonymity strategy names the views to replay (forward,
            # reverse, plus any alias lanes under multiplexing).
            for walk, mns, addrs in mic.strategy.replay_views(plan):
                _replay_direction(
                    net, mic, channel, plan, walk, addrs, indexes, neighbors,
                    report,
                )


def _hdr_matches_addr(hdr: SymbolicHeader, addr, proto: str) -> bool:
    return (
        hdr.ip_src == addr.src_ip
        and hdr.ip_dst == addr.dst_ip
        and hdr.sport == addr.sport
        and hdr.dport == addr.dport
        and hdr.mpls == addr.mpls
        and hdr.proto == proto
    )


def _violation(kind: str, msg: str, channel, plan, **kw) -> Violation:
    return Violation(
        kind=kind,
        message=msg,
        channel_id=channel.channel_id,
        flow_id=plan.flow_id,
        **kw,
    )


def _replay_direction(
    net: Network,
    mic,
    channel,
    plan,
    walk: list[str],
    addrs: list,
    indexes,
    neighbors,
    report: VerificationReport,
) -> None:
    """Symbolically walk one direction of one m-flow through the tables."""
    topo = net.topo
    real_src_ip = topo.host_ip(walk[0])
    real_dst_ip = topo.host_ip(walk[-1])
    last_seg = len(addrs) - 1
    entry_addr = addrs[0]
    hdr = SymbolicHeader(
        ip_src=entry_addr.src_ip,
        ip_dst=entry_addr.dst_ip,
        proto=plan.proto,
        sport=entry_addr.sport,
        dport=entry_addr.dport,
        mpls=entry_addr.mpls,
        in_port=net.port(walk[1], walk[0]),
    )
    node = walk[1]
    seg = 0
    visited: set[tuple] = set()
    max_hops = 4 * len(walk) + 32

    for _hop in range(max_hops):
        state = (node, hdr.key())
        if state in visited:
            report.add(_violation(
                "loop",
                f"m-flow revisits {node} with header {hdr.describe()} — "
                "forwarding loop",
                channel, plan, switch=node,
            ))
            return
        visited.add(state)
        index = indexes.get(node)
        if index is None:
            # Arrived at a host: it must be the planned endpoint, with the
            # delivery address fully restored.
            if node != walk[-1] or seg != last_seg:
                report.add(_violation(
                    "misdelivery",
                    f"m-flow delivered to {node} in segment {seg}; planned "
                    f"endpoint is {walk[-1]} in segment {last_seg}",
                    channel, plan, switch=node,
                ))
            elif hdr.ip_dst != real_dst_ip:
                report.add(_violation(
                    "rewrite-chain",
                    f"delivered header {hdr.describe()} does not restore the "
                    f"real receiver address {real_dst_ip}",
                    channel, plan, switch=node,
                ))
            return

        entry = index.winner(hdr)
        if entry is None:
            report.add(_violation(
                "blackhole",
                f"m-flow header {hdr.describe()} misses the table on {node} "
                f"(segment {seg}) — packet would punt to the controller",
                channel, plan, switch=node,
            ))
            return
        result = apply_actions(entry.actions, hdr, index.groups)
        if not result.emissions:
            why = "punts to the controller" if result.punted else "is dropped"
            report.add(_violation(
                "blackhole",
                f"m-flow header {hdr.describe()} {why} on {node} "
                f"(segment {seg}) before reaching {walk[-1]}",
                channel, plan, switch=node, rule=entry.describe(),
            ))
            return

        # Partition the emissions into the planned continuation (the header
        # equals the current or next segment address) and decoy replicas.
        real_emission: Optional[tuple[int, SymbolicHeader, int]] = None
        decoys: list[tuple[int, SymbolicHeader]] = []
        for port, out_hdr in result.emissions:
            out_seg = None
            if _hdr_matches_addr(out_hdr, addrs[seg], plan.proto):
                out_seg = seg
            elif seg < last_seg and _hdr_matches_addr(
                out_hdr, addrs[seg + 1], plan.proto
            ):
                out_seg = seg + 1
            if out_seg is not None and real_emission is None:
                real_emission = (port, out_hdr, out_seg)
            else:
                decoys.append((port, out_hdr))

        if real_emission is None:
            expected = addrs[min(seg + 1, last_seg)]
            got = result.emissions[0][1]
            report.add(_violation(
                "rewrite-chain",
                f"rewrite on {node} diverges from the plan: got "
                f"{got.describe()}, expected segment address "
                f"⟨{addrs[seg].src_ip}->{addrs[seg].dst_ip}⟩ or "
                f"⟨{expected.src_ip}->{expected.dst_ip}⟩",
                channel, plan, switch=node, rule=entry.describe(),
            ))
            return
        for port, decoy_hdr in decoys:
            _trace_decoy(
                net, channel, plan, node, port, decoy_hdr, indexes, neighbors,
                report,
            )

        port, out_hdr, seg = real_emission
        peer = neighbors.get((node, port))
        if peer is None:
            report.add(_violation(
                "blackhole",
                f"rule on {node} emits the m-flow to dead port {port}",
                channel, plan, switch=node, rule=entry.describe(),
            ))
            return
        # Plaintext-endpoint confinement (checked on every emitted link).
        if seg > 0 and out_hdr.ip_src == real_src_ip:
            report.add(_violation(
                "plaintext-leak",
                f"real initiator address {real_src_ip} visible on link "
                f"{node}->{peer} in segment {seg} (only segment 0 may carry "
                "it)",
                channel, plan, switch=node, rule=entry.describe(),
            ))
        if seg < last_seg and out_hdr.ip_dst == real_dst_ip:
            report.add(_violation(
                "plaintext-leak",
                f"real receiver address {real_dst_ip} visible on link "
                f"{node}->{peer} in segment {seg} (only the delivery segment "
                "may carry it)",
                channel, plan, switch=node, rule=entry.describe(),
            ))
        hdr = out_hdr.with_field("in_port", net.port_map.get((peer, node)))
        node = peer

    report.add(_violation(
        "loop",
        f"m-flow did not terminate within {max_hops} hops — runaway path",
        channel, plan, switch=node,
    ))


def _trace_decoy(
    net: Network,
    channel,
    plan,
    origin: str,
    port: int,
    hdr: SymbolicHeader,
    indexes,
    neighbors,
    report: VerificationReport,
) -> None:
    """Follow one decoy replica; it must die at an explicit drop rule."""
    topo = net.topo
    responder_pod = topo.graph.nodes[channel.responder].get("pod")
    stack: list[tuple[str, int, SymbolicHeader]] = []
    peer = neighbors.get((origin, port))
    if peer is None:
        return
    stack.append((
        peer, port, hdr.with_field("in_port", net.port_map.get((peer, origin)))
    ))
    visited: set[tuple] = set()
    while stack:
        node, from_port, cur = stack.pop()
        if node not in indexes:
            # A decoy replica reached a real host.
            if node == channel.responder or (
                responder_pod is not None
                and topo.graph.nodes[node].get("pod") == responder_pod
            ):
                report.add(_violation(
                    "decoy-to-receiver",
                    f"decoy replica from {origin} reaches {node} — the real "
                    f"receiver{'' if node == channel.responder else chr(39) + 's pod'}"
                    f" (header {cur.describe()})",
                    channel, plan, switch=origin,
                ))
            else:
                report.add(_violation(
                    "decoy-delivered",
                    f"decoy replica from {origin} is delivered to host "
                    f"{node} (header {cur.describe()}); decoys must be "
                    "dropped inside the fabric",
                    channel, plan, switch=origin,
                ))
            continue
        state = (node, cur.key())
        if state in visited:
            continue
        visited.add(state)
        index = indexes[node]
        entry = index.winner(cur)
        if entry is None:
            report.add(_violation(
                "decoy-unterminated",
                f"decoy replica dies by table miss on {node} instead of an "
                f"explicit drop rule (header {cur.describe()})",
                channel, plan, switch=node, severity=Severity.WARNING,
            ))
            continue
        result = apply_actions(entry.actions, cur, index.groups)
        if result.dropped and not result.emissions:
            continue  # the planned fate: an explicit drop
        if not result.emissions:
            report.add(_violation(
                "decoy-unterminated",
                f"decoy replica punts to the controller from {node} "
                f"(header {cur.describe()})",
                channel, plan, switch=node, rule=entry.describe(),
                severity=Severity.WARNING,
            ))
            continue
        for out_port, out_hdr in result.emissions:
            nxt = neighbors.get((node, out_port))
            if nxt is None:
                continue
            stack.append((
                nxt,
                out_port,
                out_hdr.with_field("in_port", net.port_map.get((nxt, node))),
            ))


def _verify_maga(mic, channel, plan, report: VerificationReport) -> None:
    """Label-space and hash-class membership of every drawn m-address."""
    for (walk, mns, addrs), tag in zip(plan.directions(), ("fwd", "rev")):
        last_seg = len(addrs) - 1
        for k, addr in enumerate(addrs):
            labeled = 0 < k < last_seg
            if not labeled:
                if addr.mpls is not None:
                    report.add(_violation(
                        "maga-class",
                        f"{tag} segment {k} is host-adjacent but carries "
                        f"MPLS label {addr.mpls} (hosts cannot parse shims)",
                        channel, plan,
                    ))
                continue
            mn = walk[mns[k - 1]]
            owner = mic.planner.labels.owner_of(addr.mpls)
            if owner != mn:
                report.add(_violation(
                    "maga-class",
                    f"{tag} segment {k} label {addr.mpls} written by {mn} "
                    f"belongs to {owner!r}, not the rewriting MN — MN label "
                    "sets must be disjoint",
                    channel, plan, switch=mn,
                ))
                continue
            fid = mic.planner.mn_spaces[mn].flow_id_of(
                addr.src_ip, addr.dst_ip, addr.mpls
            )
            if fid != plan.flow_id:
                report.add(_violation(
                    "maga-class",
                    f"{tag} segment {k} tuple "
                    f"⟨{addr.src_ip},{addr.dst_ip},{addr.mpls}⟩ classifies "
                    f"to flow {fid} under {mn}'s hash, not flow "
                    f"{plan.flow_id} — match-entry uniqueness is broken",
                    channel, plan, switch=mn,
                ))
