"""Integration tests for the controller runtime and the baseline L3 app."""


from repro.net import FlowEntry, Match, Network, Output, fat_tree, linear
from repro.sdn import Controller, ControllerApp, L3ShortestPathApp


def build(topo):
    net = Network(topo)
    ctrl = Controller(net)
    return net, ctrl


class RecorderApp(ControllerApp):
    def __init__(self):
        self.seen = []

    def on_packet_in(self, switch, packet, in_port):
        self.seen.append((switch.name, in_port, packet.uid))
        return True


def test_packet_in_dispatch():
    net, ctrl = build(linear(1, hosts_per_switch=2))
    rec = ctrl.register(RecorderApp())
    h1, h2 = net.host("h1"), net.host("h2")
    h1.send_packet(h1.make_packet(h2.ip, dport=80))
    net.run()
    assert len(rec.seen) == 1
    assert rec.seen[0][0] == "s1"
    assert ctrl.packet_in_count == 1


def test_app_chain_stops_at_consumer():
    net, ctrl = build(linear(1, hosts_per_switch=2))
    first = ctrl.register(RecorderApp())
    second = ctrl.register(RecorderApp())
    h1, h2 = net.host("h1"), net.host("h2")
    h1.send_packet(h1.make_packet(h2.ip, dport=80))
    net.run()
    assert len(first.seen) == 1 and len(second.seen) == 0


def test_install_counts_flow_mods():
    net, ctrl = build(linear(2, hosts_per_switch=1))
    ctrl.install_batch("s1", [FlowEntry(Match(), [Output(1)])])
    ctrl.install_batch("s2", [FlowEntry(Match(), [Output(1)])])
    net.run()
    assert ctrl.flow_mods_sent == 2
    assert len(net.switch("s1").table) == 1


def test_l3_hop_rules_skip_hosts():
    net, ctrl = build(linear(3, hosts_per_switch=1))
    l3 = ctrl.register(L3ShortestPathApp())
    l3.wire_pair("h1", "h3")
    net.run()
    assert l3.pair_paths[("h1", "h3")] == ["h1", "s1", "s2", "s3", "h3"]
    h1, h3 = net.host("h1").ip, net.host("h3").ip
    for ip_src, ip_dst, hops in (
        (h1, h3, [("s1", "s2"), ("s2", "s3"), ("s3", "h3")]),
        (h3, h1, [("s3", "s2"), ("s2", "s1"), ("s1", "h1")]),
    ):
        for sw, nxt in hops:
            (rule,) = [
                e for e in net.switch(sw).table.iter_entries()
                if (e.match.ip_src, e.match.ip_dst) == (ip_src, ip_dst)
            ]
            assert list(rule.actions) == [Output(net.port(sw, nxt))]
    assert ctrl.flow_mods_sent == 6  # the hosts at the ends carry no rule


def test_l3_reactive_first_packet_delivered():
    net, ctrl = build(fat_tree(4))
    ctrl.register(L3ShortestPathApp())
    h1, h16 = net.host("h1"), net.host("h16")
    got = []
    h16.bind("tcp", 80, lambda host, p: got.append(p))
    h1.send_packet(h1.make_packet(h16.ip, dport=80, payload="x", payload_size=1))
    net.run()
    assert len(got) == 1
    assert got[0].ip_src == h1.ip


def test_l3_reply_path_preinstalled():
    net, ctrl = build(fat_tree(4))
    ctrl.register(L3ShortestPathApp())
    h1, h16 = net.host("h1"), net.host("h16")

    def echo(host, p):
        host.send_packet(
            host.make_packet(p.ip_src, sport=p.dport, dport=p.sport, payload_size=1)
        )

    h16.bind("tcp", 80, echo)
    got = []
    h1.bind("tcp", 999, lambda host, p: got.append(p))
    h1.send_packet(h1.make_packet(h16.ip, sport=999, dport=80, payload_size=1))
    net.run()
    assert len(got) == 1
    # The reply must not have caused a second packet-in.
    assert ctrl.packet_in_count == 1


def test_l3_second_flow_same_pair_no_packet_in():
    net, ctrl = build(fat_tree(4))
    ctrl.register(L3ShortestPathApp())
    h1, h16 = net.host("h1"), net.host("h16")
    got = []
    h16.bind("tcp", 80, lambda host, p: got.append(p))
    h1.send_packet(h1.make_packet(h16.ip, dport=80, payload_size=1))
    net.run()
    h1.send_packet(h1.make_packet(h16.ip, dport=80, payload_size=1))
    net.run()
    assert len(got) == 2
    assert ctrl.packet_in_count == 1


def test_l3_burst_during_setup_all_delivered():
    """Packets punted while rules are still installing are held & released."""
    net, ctrl = build(fat_tree(4))
    ctrl.register(L3ShortestPathApp())
    h1, h16 = net.host("h1"), net.host("h16")
    got = []
    h16.bind("tcp", 80, lambda host, p: got.append(p.uid))
    pkts = [h1.make_packet(h16.ip, dport=80, payload_size=1) for _ in range(5)]
    for p in pkts:
        h1.send_packet(p)
    net.run()
    assert sorted(got) == sorted(p.uid for p in pkts)


def test_l3_proactive_wiring_no_packet_ins():
    net, ctrl = build(fat_tree(4))
    app = ctrl.register(L3ShortestPathApp())
    app.wire_all_pairs()
    net.run()  # let installs finish
    h1, h9 = net.host("h1"), net.host("h9")
    got = []
    h9.bind("tcp", 80, lambda host, p: got.append(p))
    h1.send_packet(h1.make_packet(h9.ip, dport=80, payload_size=1))
    net.run()
    assert len(got) == 1
    assert ctrl.packet_in_count == 0


def test_remove_by_cookie_tears_down():
    net, ctrl = build(linear(1, hosts_per_switch=2))
    ctrl.install_batch("s1", [FlowEntry(Match(), [Output(1)], cookie=7)])
    net.run()
    ctrl.remove_by_cookie("s1", 7)
    net.run()
    assert len(net.switch("s1").table) == 0


def test_packet_out_reinjects():
    net, ctrl = build(linear(1, hosts_per_switch=2))
    h1, h2 = net.host("h1"), net.host("h2")
    got = []
    h2.bind("tcp", 80, lambda host, p: got.append(p))
    pkt = h1.make_packet(h2.ip, dport=80)
    ctrl.packet_out("s1", pkt, net.port("s1", "h2"))
    net.run()
    assert len(got) == 1
