"""Integration tests: hosts, switches and links forwarding real packets."""

import pytest

from repro.analysis.symbolic import SymbolicHeader, apply_actions
from repro.net import (
    CONTROLLER_PORT,
    Drop,
    FlowEntry,
    Match,
    Network,
    NetParams,
    Output,
    PopMpls,
    PushMpls,
    SetField,
    ip,
    linear,
)
from repro.obs import JourneyRecorder
from tests.journey_rows import events


def two_host_net(**param_overrides):
    params = NetParams(**param_overrides) if param_overrides else NetParams()
    net = Network(linear(1, hosts_per_switch=2), params=params)
    return net


def wire_direct(net):
    """Install plain forwarding rules between h1 and h2 on s1."""
    s1 = net.switch("s1")
    h1, h2 = net.host("h1"), net.host("h2")
    s1.table.install(
        FlowEntry(Match(ip_dst=h2.ip), [Output(net.port("s1", "h2"))])
    )
    s1.table.install(
        FlowEntry(Match(ip_dst=h1.ip), [Output(net.port("s1", "h1"))])
    )
    return s1, h1, h2


def test_host_to_host_delivery():
    net = two_host_net()
    s1, h1, h2 = wire_direct(net)
    got = []
    h2.bind("tcp", 80, lambda host, p: got.append(p))
    pkt = h1.make_packet(h2.ip, dport=80, payload="hello", payload_size=5)
    h1.send_packet(pkt)
    net.run()
    assert len(got) == 1
    assert got[0].payload == "hello"
    assert got[0].ip_src == h1.ip


def test_delivery_latency_accounts_for_all_stages():
    net = two_host_net()
    s1, h1, h2 = wire_direct(net)
    times = []
    h2.bind("tcp", 80, lambda host, p: times.append(net.sim.now))
    pkt = h1.make_packet(h2.ip, dport=80, payload_size=10)
    h1.send_packet(pkt)
    net.run()
    p = net.params
    # stack(tx) + link + switch + link + stack(rx); each link adds tx+prop.
    tx = p.tx_time(pkt.size)
    expected = (
        p.host_stack_delay_s  # sender stack
        + tx + p.link_delay_s  # h1 -> s1
        + p.switch_forward_delay_s
        + tx + p.link_delay_s  # s1 -> h2
        + p.host_stack_delay_s  # receiver stack
    )
    assert times[0] == pytest.approx(expected, rel=1e-9)


def test_header_rewrite_on_path():
    """A switch rewriting src/dst — the Mimic Node primitive end to end."""
    net = two_host_net()
    s1 = net.switch("s1")
    h1, h2 = net.host("h1"), net.host("h2")
    fake_src = ip("10.0.0.77")
    s1.table.install(
        FlowEntry(
            Match(ip_src=h1.ip, ip_dst=ip("10.0.0.99")),
            [
                SetField("ip_src", fake_src),
                SetField("ip_dst", h2.ip),
                Output(net.port("s1", "h2")),
            ],
        )
    )
    got = []
    h2.bind("tcp", 80, lambda host, p: got.append(p))
    h1.send_packet(h1.make_packet(ip("10.0.0.99"), dport=80, payload_size=1))
    net.run()
    assert len(got) == 1
    assert got[0].ip_src == fake_src  # receiver sees the mimic source
    assert got[0].ip_dst == h2.ip


def test_each_rewrite_action_adds_its_delay_and_cpu_surcharge():
    """Sec VI-B: every set-field / push / pop costs the pipeline one
    ``setfield_delay_s`` and the switch CPU one ``setfield_cpu_s`` — worked
    out from the entry's ``rewrite_count``, for every packet alike."""
    net = two_host_net()
    s1 = net.switch("s1")
    h1, h2 = net.host("h1"), net.host("h2")
    entry = FlowEntry(
        Match(ip_dst=ip("10.0.0.99")),
        [
            SetField("ip_dst", h2.ip),
            PushMpls(7),
            PopMpls(),
            Output(net.port("s1", "h2")),
        ],
    )
    s1.table.install(entry)
    times = []
    h2.bind("tcp", 80, lambda host, p: times.append(net.sim.now))
    sent = []
    for _ in range(3):
        pkt = h1.make_packet(ip("10.0.0.99"), dport=80, payload_size=10)
        sent.append(net.sim.now)
        h1.send_packet(pkt)
        net.run()
    p = net.params
    tx = p.tx_time(pkt.size)
    expected = (
        2 * p.host_stack_delay_s + 2 * (tx + p.link_delay_s)
        + p.switch_forward_delay_s + 3 * p.setfield_delay_s
    )
    assert entry.rewrite_count == 3
    for t0, t1 in zip(sent, times):
        assert t1 - t0 == pytest.approx(expected, rel=1e-9)
    assert s1.cpu.busy_s == pytest.approx(
        3 * (p.switch_forward_cpu_s + 3 * p.setfield_cpu_s), rel=1e-12
    )


def test_foreign_packet_dropped_by_nic():
    net = two_host_net()
    s1 = net.switch("s1")
    h1, h2 = net.host("h1"), net.host("h2")
    # Misdeliver: forward to h2 but with a dst IP that is not h2's.
    s1.table.install(FlowEntry(Match(), [Output(net.port("s1", "h2"))]))
    got = []
    h2.bind("tcp", 80, lambda host, p: got.append(p))
    journey = JourneyRecorder.attach(net)
    h1.send_packet(h1.make_packet(ip("10.0.0.50"), dport=80))
    net.run()
    assert got == []
    assert h2.packets_received == 0
    drops = events(journey, "host.foreign_drop")
    assert [(ev.where, ev["dst_ip"]) for ev in drops] == [("h2", "10.0.0.50")]


def test_table_miss_punts_to_controller():
    net = two_host_net()
    s1 = net.switch("s1")
    h1, h2 = net.host("h1"), net.host("h2")
    punted = []
    s1.connect_controller(lambda sw, p, in_port: punted.append((sw.name, in_port)))
    h1.send_packet(h1.make_packet(h2.ip, dport=80))
    net.run()
    assert punted == [("s1", net.port("s1", "h1"))]
    assert s1.packets_punted == 1


def test_output_to_the_controller_pseudo_port_is_a_punt_not_a_wire():
    # Used to emit on port -1 and die in Node.transmit ("no channel on port
    # -1") out of net.run(); the static verifier always read it as a punt.
    net = Network(linear(2, hosts_per_switch=1))
    s1, h1, h2 = net.switch("s1"), net.host("h1"), net.host("h2")
    entry = FlowEntry(Match(ip_dst=h2.ip), [Output(CONTROLLER_PORT)])
    s1.table.install(entry)
    punted = []
    s1.connect_controller(lambda sw, p, in_port: punted.append((sw.name, p, in_port)))
    journey = JourneyRecorder.attach(net)
    pkt = h1.make_packet(h2.ip, dport=80, payload_size=40)
    h1.send_packet(pkt)
    net.run()
    assert punted == [("s1", pkt, net.port("s1", "h1"))]  # once, the packet itself
    assert s1.packets_forwarded == 0 and s1.packets_punted == 0  # a hit, not a miss
    assert net.switch("s2").table.cache_misses == 0 and h2.packets_received == 0
    # the packet entered s1 and left on no port
    assert [ev.kind for ev in events(journey) if ev.where == "s1"] == ["switch.ingress"]
    assert (entry.packet_count, entry.byte_count) == (1, pkt.size)  # ingress size
    # the model and the verifier agree
    symbolic = apply_actions(entry.actions, SymbolicHeader(ip_dst=h2.ip), {})
    assert symbolic.punted and symbolic.emissions == [] and not symbolic.dropped


def test_table_miss_without_controller_drops():
    net = two_host_net()
    h1, h2 = net.host("h1"), net.host("h2")
    h1.send_packet(h1.make_packet(h2.ip, dport=80))
    net.run()
    assert h2.packets_received == 0


def test_drop_rule():
    net = two_host_net()
    s1, h1, h2 = wire_direct(net)
    s1.table.install(
        FlowEntry(Match(ip_src=h1.ip), [Drop()], priority=100)
    )
    h1.send_packet(h1.make_packet(h2.ip, dport=80))
    net.run()
    assert h2.packets_received == 0


def test_ttl_expiry_stops_loops():
    net = Network(linear(2, hosts_per_switch=1))
    s1, s2 = net.switch("s1"), net.switch("s2")
    # Forwarding loop between s1 and s2.
    s1.table.install(FlowEntry(Match(), [Output(net.port("s1", "s2"))]))
    s2.table.install(FlowEntry(Match(), [Output(net.port("s2", "s1"))]))
    h1 = net.host("h1")
    journey = JourneyRecorder.attach(net)
    h1.send_packet(h1.make_packet(ip("10.0.0.99"), dport=80, payload_size=0))
    net.run()
    expiries = events(journey, "switch.ttl_expired")
    assert len(expiries) == 1


def test_mirror_tap_sees_both_directions():
    net = two_host_net()
    s1, h1, h2 = wire_direct(net)
    seen = []
    s1.add_mirror_tap(lambda p, port, d: seen.append((d, p.uid)))
    h1.send_packet(h1.make_packet(h2.ip, dport=80))
    net.run()
    directions = [d for d, _ in seen]
    assert directions == ["in", "out"]


def test_link_queue_tail_drop():
    # Tiny queue: only one 1000-byte packet fits.
    net = two_host_net(link_queue_bytes=1100)
    s1, h1, h2 = wire_direct(net)
    h2.bind("tcp", 80, lambda host, p: None)
    journey = JourneyRecorder.attach(net)
    for _ in range(5):
        h1.send_packet(h1.make_packet(h2.ip, dport=80, payload_size=1000))
    net.run()
    drops = events(journey, "link.drop")
    assert len(drops) >= 1
    assert h2.packets_received < 5


def test_link_stats_count_bytes():
    net = two_host_net()
    s1, h1, h2 = wire_direct(net)
    h2.bind("tcp", 80, lambda host, p: None)
    pkt = h1.make_packet(h2.ip, dport=80, payload_size=100)
    h1.send_packet(pkt)
    net.run()
    ch = h1.ports[0]
    assert ch.stats.packets == 1
    assert ch.stats.bytes == pkt.size


def test_cpu_accounting_accumulates():
    net = two_host_net()
    s1, h1, h2 = wire_direct(net)
    h2.bind("tcp", 80, lambda host, p: None)
    h1.send_packet(h1.make_packet(h2.ip, dport=80, payload_size=100))
    net.run()
    assert h1.cpu.busy_s > 0
    assert s1.cpu.busy_s > 0
    assert net.total_cpu_busy_s() >= h1.cpu.busy_s + s1.cpu.busy_s


def test_flow_install_delay():
    net = two_host_net()
    s1 = net.switch("s1")
    entry = FlowEntry(Match(), [Output(1)])
    ev = s1.install_many_later([entry])
    net.run(until=ev)
    assert net.sim.now == pytest.approx(net.params.flow_install_delay_s)
    assert len(s1.table) == 1


def test_port_map_consistency():
    net = Network(linear(3, hosts_per_switch=1))
    for (a, b), port in net.port_map.items():
        node = net.node(a)
        assert node.neighbor(port) == b
        assert node.port_to(b) == port
