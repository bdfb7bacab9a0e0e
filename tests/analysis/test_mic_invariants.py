"""Intent-level verification of live MIC channels, clean and seeded-fault.

The clean cases prove the acceptance gate (32 concurrent m-flows on the
paper's 4-ary fat-tree verify with zero violations).  The fault cases
tamper with the installed tables in targeted ways and assert the verifier
detects each class with a diagnostic naming the switch and rule.
"""

import networkx as nx
import pytest

from analysis_helpers import build, establish_batch, run_proc

from repro.analysis import VerificationError, verify_network
from repro.analysis.verifier import match_key
from repro.core import MIC_PRIORITY
from repro.core.controller import DECOY_DROP_PRIORITY
from repro.net.flowtable import (
    Drop,
    FlowEntry,
    Match,
    Output,
    PopMpls,
    SetField,
)
from tests.net.graph_oracle import to_networkx

CROSS_POD_PAIRS = [("h1", "h16"), ("h5", "h12"), ("h2", "h9"), ("h6", "h15")]


def established(n_pairs=2, decoys=1, n_flows=2, n_mns=3, seed=0):
    net, ctrl, mic = build(seed=seed)
    establish_batch(
        net, mic, CROSS_POD_PAIRS[:n_pairs],
        n_flows=n_flows, n_mns=n_mns, decoys=decoys,
    )
    return net, ctrl, mic


def mic_rules(net, cookie=None):
    """(switch, entry) pairs for installed m-flow rules."""
    out = []
    for sw in net.switches():
        for e in sw.table.entries:
            if e.priority == MIC_PRIORITY and (cookie is None or e.cookie == cookie):
                out.append((sw.name, e))
    return out


class TestCleanConfigurations:
    def test_32_concurrent_mflows_verify_clean(self):
        net, ctrl, mic = build(seed=0)
        pairs = [CROSS_POD_PAIRS[i % len(CROSS_POD_PAIRS)] for i in range(8)]
        establish_batch(net, mic, pairs, n_flows=4, n_mns=3, decoys=1)
        n_flows = sum(len(ch.flows) for ch in mic.channels.values())
        assert n_flows >= 32
        report = verify_network(net, mic=mic)
        assert report.ok, report.format()
        assert report.checked_flows == n_flows

    def test_controller_verify_helper(self):
        net, ctrl, mic = established(n_pairs=1)
        report = ctrl.verify()
        assert report.ok, report.format()
        assert report.checked_flows == 2  # MIC app picked up via duck-typing

    def test_mic_verify_helper(self):
        net, ctrl, mic = established(n_pairs=1, decoys=0)
        assert mic.verify().ok

    def test_verify_true_establish_passes_when_clean(self):
        net, ctrl, mic = build(verify=True)
        grant = run_proc(
            net, mic.establish("h1", "h16", service_port=80, n_mns=3, decoys=1)
        )
        assert grant is not None
        assert mic.verify_installs


class TestSeededFaults:
    def test_duplicate_match_key_detected(self):
        net, ctrl, mic = established(n_pairs=1)
        sw_name, victim = mic_rules(net)[0]
        clone = FlowEntry(
            victim.match, list(victim.actions),
            priority=MIC_PRIORITY, cookie=0xDEAD,
        )
        net.switch(sw_name).table.install(clone)
        report = verify_network(net, mic=mic)
        hits = report.by_kind("duplicate-match-key")
        assert hits, report.format()
        assert hits[0].switch == sw_name
        assert "2 distinct flows" in hits[0].message

    def test_registry_mismatch_detected(self):
        net, ctrl, mic = established(n_pairs=1)
        rogue = FlowEntry(
            Match(
                ip_src=net.topo.host_ip("h3"),
                ip_dst=net.topo.host_ip("h4"),
                sport=40000, dport=40001, mpls=Match.NO_MPLS,
            ),
            [Drop()],
            priority=MIC_PRIORITY,
            cookie=0xDEAD,
        )
        net.switch("c1").table.install(rogue)
        report = verify_network(net, mic=mic)
        hits = report.by_kind("registry-mismatch")
        assert hits, report.format()
        assert hits[0].switch == "c1"
        assert mic.registry.owner("c1", match_key(rogue.match)) is None

    def test_shadowed_mic_rule_detected(self):
        net, ctrl, mic = established(n_pairs=1)
        sw_name, victim = mic_rules(net)[0]
        net.switch(sw_name).table.install(
            FlowEntry(Match(), [Drop()], priority=MIC_PRIORITY + 10)
        )
        report = verify_network(net, mic=mic)
        hits = report.by_kind("shadowed-rule")
        assert hits, report.format()
        assert any(v.switch == sw_name for v in hits)
        # The m-flow replay also sees its traffic swallowed by the drop.
        assert report.by_kind("blackhole")

    def test_removed_rule_blackholes_flow(self):
        net, ctrl, mic = established(n_pairs=1, decoys=0)
        plan = next(iter(mic.channels.values())).flows[0]
        rules = mic_rules(net, cookie=plan.cookie)
        sw_name, victim = rules[len(rules) // 2]
        net.switch(sw_name).table.remove(victim.match, victim.priority)
        report = verify_network(net, mic=mic)
        hits = report.by_kind("blackhole")
        assert hits, report.format()
        assert any(v.switch == sw_name for v in hits)
        assert any(v.flow_id == plan.flow_id for v in hits)

    def test_rewrite_chain_divergence_detected(self):
        # Corrupt one MN rewrite: change the set-field destination so the
        # emitted header no longer matches any planned segment address.
        net, ctrl, mic = established(n_pairs=1, decoys=0)
        plan = next(iter(mic.channels.values())).flows[0]
        wrong_ip = net.topo.host_ip("h8")
        for sw_name, entry in mic_rules(net, cookie=plan.cookie):
            sets = [a for a in entry.actions if isinstance(a, SetField)]
            if not any(a.field == "ip_dst" for a in sets):
                continue
            new_actions = [
                SetField("ip_dst", wrong_ip)
                if isinstance(a, SetField) and a.field == "ip_dst"
                else a
                for a in entry.actions
            ]
            entry.actions = new_actions
            break
        else:
            pytest.fail("no MN rewrite rule found to corrupt")
        report = verify_network(net, mic=mic)
        assert report.by_kind("rewrite-chain") or report.by_kind("blackhole"), (
            report.format()
        )

    def test_decoy_drop_removed_is_flagged_unterminated(self):
        net, ctrl, mic = established(n_pairs=1, n_flows=1)
        drops = [
            (sw.name, e)
            for sw in net.switches()
            for e in sw.table.entries
            if e.priority == DECOY_DROP_PRIORITY
        ]
        assert drops, "expected decoy drop rules with decoys=1"
        sw_name, drop_entry = drops[0]
        net.switch(sw_name).table.remove(drop_entry.match, drop_entry.priority)
        report = verify_network(net, mic=mic)
        hits = report.by_kind("decoy-unterminated")
        assert hits, report.format()
        assert any(v.switch == sw_name for v in hits)
        assert all(v.severity == "warning" for v in hits)

    def test_decoy_rerouted_to_real_receiver_detected(self):
        net, ctrl, mic = established(n_pairs=1, n_flows=1)
        channel = next(iter(mic.channels.values()))
        responder = channel.responder
        resp_ip = net.topo.host_ip(responder)
        resp_mac = net.topo.host_mac(responder)
        drops = [
            (sw.name, e)
            for sw in net.switches()
            for e in sw.table.entries
            if e.priority == DECOY_DROP_PRIORITY
        ]
        sw_name, drop_entry = drops[0]
        # Maliciously rewrite the decoy toward the real receiver and lay
        # down a delivery chain for it.
        path = nx.shortest_path(to_networkx(net.topo), sw_name, responder)
        table = net.switch(sw_name).table
        table.remove(drop_entry.match, drop_entry.priority)
        table.install(
            FlowEntry(
                drop_entry.match,
                [
                    SetField("ip_dst", resp_ip),
                    SetField("eth_dst", resp_mac),
                    PopMpls(),
                    Output(net.port(sw_name, path[1])),
                ],
                priority=DECOY_DROP_PRIORITY,
                cookie=0xDEAD,
            )
        )
        for i, node in enumerate(path[1:-1], start=1):
            net.switch(node).table.install(
                FlowEntry(
                    Match(ip_dst=resp_ip, mpls=Match.NO_MPLS),
                    [Output(net.port(node, path[i + 1]))],
                    priority=DECOY_DROP_PRIORITY + 5,
                    cookie=0xDEAD,
                )
            )
        report = verify_network(net, mic=mic)
        hits = report.by_kind("decoy-to-receiver")
        assert hits, report.format()
        assert responder in hits[0].message

    def test_verify_true_raises_on_poisoned_fabric(self):
        net, ctrl, mic = build(verify=True)
        # Hostile high-priority drop rule on an edge switch: establishment
        # itself succeeds, but post-install verification must refuse it.
        net.switch("p0e0").table.install(
            FlowEntry(Match(), [Drop()], priority=MIC_PRIORITY + 10)
        )
        with pytest.raises(VerificationError) as excinfo:
            run_proc(
                net,
                mic.establish("h1", "h16", service_port=80, n_mns=3),
            )
        assert excinfo.value.report.errors
