"""The paper's Fig 3 routing-collision scenarios, as regression tests.

Fig 3 enumerates three ways naive header rewriting corrupts routing:

(a) two m-flows rewritten *to* the same triple at the same switch,
(b) an m-flow rewritten into the triple of an existing (common) flow,
(c) two flows arriving at a shared switch already carrying the same triple,
    with neither rewritten there.

Each test constructs the conditions under which the naive scheme would
collide and verifies MIC's avoidance mechanism (flow-ID classes, CF/MF
categories, per-MN disjoint label sets) prevents it on the live fabric.
"""

import itertools


from repro.core import MIC_PRIORITY, CommonFlowTagger, MimicController
from repro.net import Network, fat_tree
from repro.sdn import Controller, L3ShortestPathApp


def build(seed=0):
    net = Network(fat_tree(4), seed=seed)
    ctrl = Controller(net)
    mic = ctrl.register(MimicController())
    l3 = ctrl.register(L3ShortestPathApp())
    return net, ctrl, mic, l3


def establish_many(net, mic, pairs, **kw):
    def go():
        for a, b in pairs:
            yield from mic.establish(a, b, service_port=80, **kw)

    proc = net.sim.process(go())
    net.run(until=proc)


def mic_keys_by_switch(net):
    keys = {}
    for sw in net.switches():
        keys[sw.name] = [
            e.match.key()
            for e in sw.table.entries
            if e.priority == MIC_PRIORITY
        ]
    return keys


class TestFig3a:
    """Two m-flows must never be rewritten to the same triple anywhere."""

    def test_many_flows_through_shared_fabric(self):
        net, ctrl, mic, l3 = build()
        # Lots of channels between overlapping pods: every core/agg switch
        # carries rewritten addresses from many different m-flows.
        pairs = [(f"h{a}", f"h{b}") for a, b in
                 itertools.islice(itertools.permutations(range(1, 17), 2), 24)]
        establish_many(net, mic, pairs, n_mns=3)
        for sw, keys in mic_keys_by_switch(net).items():
            assert len(keys) == len(set(keys)), f"Fig 3(a) collision at {sw}"

    def test_rewrite_targets_distinct_per_mn(self):
        """Directly: the *output* addresses written by one MN for different
        flows are pairwise distinct triples."""
        net, ctrl, mic, l3 = build()
        pairs = [("h1", f"h{i}") for i in range(9, 17)]
        establish_many(net, mic, pairs, n_mns=3)
        by_mn: dict[str, list] = {}
        for ch in mic.channels.values():
            for plan in ch.flows:
                for i, pos in enumerate(plan.mn_positions):
                    out_addr = plan.fwd_addrs[i + 1]
                    by_mn.setdefault(plan.walk[pos], []).append(
                        (out_addr.src_ip, out_addr.dst_ip, out_addr.mpls,
                         out_addr.sport, out_addr.dport)
                    )
        for mn, triples in by_mn.items():
            assert len(triples) == len(set(triples)), f"duplicate write at {mn}"


class TestFig3b:
    """An m-flow must never occupy an existing common flow's match."""

    def test_m_addresses_disjoint_from_tagged_common_flows(self):
        net, ctrl, mic, l3 = build()
        # Wire and CF-tag common flows everywhere first.
        l3.wire_all_pairs()
        net.run()
        tagger = CommonFlowTagger(mic)
        tagger.tag_all_recorded(l3)
        net.run()
        # Now establish m-flows across the same fabric.
        establish_many(net, mic, [("h1", "h16"), ("h2", "h15"), ("h3", "h14")],
                       n_mns=3)
        # Every labeled m-address is in an MN's class; every CF label is in
        # the common class; the classes are disjoint by construction.
        for ch in mic.channels.values():
            for plan in ch.flows:
                for addr in plan.fwd_addrs + plan.rev_addrs:
                    if addr.mpls is not None:
                        assert not mic.planner.labels.is_common(addr.mpls), (
                            "Fig 3(b): m-flow drew a common-category label"
                        )

    def test_full_table_uniqueness_with_cf_and_mf(self):
        """On the actual switches: no (match-key) overlap between CF-tag
        rules and m-flow rules."""
        net, ctrl, mic, l3 = build()
        l3.wire_all_pairs()
        net.run()
        CommonFlowTagger(mic).tag_all_recorded(l3)
        net.run()
        establish_many(net, mic, [("h1", "h16"), ("h4", "h13")], n_mns=3)
        for sw in net.switches():
            keys = [e.match.key() for e in sw.table.entries
                    if e.priority >= 20]  # tag + mic priorities
            assert len(keys) == len(set(keys)), f"Fig 3(b) overlap at {sw.name}"


class TestFig3c:
    """Flows arriving at a shared switch with addresses written by
    *different* MNs can never look identical: per-MN label sets are
    disjoint."""

    def test_cross_mn_triples_never_equal(self):
        net, ctrl, mic, l3 = build()
        pairs = [(f"h{a}", f"h{17 - a}") for a in range(1, 9)]
        establish_many(net, mic, pairs, n_mns=3)
        # Collect every labeled segment address, tagged by the MN that
        # wrote it.
        writes: list[tuple[str, tuple]] = []
        for ch in mic.channels.values():
            for plan in ch.flows:
                for i, pos in enumerate(plan.mn_positions[:-1]):
                    addr = plan.fwd_addrs[i + 1]
                    if addr.mpls is not None:
                        writes.append(
                            (plan.walk[pos],
                             (addr.src_ip, addr.dst_ip, addr.mpls))
                        )
        for (mn_a, t_a), (mn_b, t_b) in itertools.combinations(writes, 2):
            if mn_a != mn_b:
                assert t_a != t_b, (
                    f"Fig 3(c): {mn_a} and {mn_b} wrote identical triples"
                )

    def test_label_ownership_separates_mns(self):
        """The mechanism itself: any two labels drawn by different MNs
        classify to their own (different) owners."""
        net, ctrl, mic, l3 = build()
        rng = net.sim.rng("t")
        switches = net.topo.switches()[:6]
        labels = {
            sw: [
                mic.planner.mn_spaces[sw].draw_label(
                    fid, net.host("h1").ip, net.host("h2").ip, rng
                )
                for fid in range(10)
            ]
            for sw in switches
        }
        for sw, drawn in labels.items():
            for label in drawn:
                assert mic.planner.labels.owner_of(label) == sw
