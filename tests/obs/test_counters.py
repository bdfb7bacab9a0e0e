"""Counter correctness on a scripted run: exact packet/byte assertions.

A 3-switch chain with hand-installed rules carries a known number of
identically-sized packets, so every per-rule, per-port and per-host
counter the snapshot derives has one exact right answer.
"""

import pytest

from repro.net import FlowEntry, Match, Network, Output, linear
from repro.obs import Observer

N_PACKETS = 5
PAYLOAD = 200


@pytest.fixture
def chain():
    """linear(3, 1): h1-s1-s2-s3-h3, one forwarding rule per switch,
    plus a never-matching decoy rule on s1; 5 packets h1 -> h3."""
    net = Network(linear(3, hosts_per_switch=1), seed=1)
    h1, h3 = net.host("h1"), net.host("h3")
    rules = {}
    for sw_name, out in (
        ("s1", ("s1", "s2")),
        ("s2", ("s2", "s3")),
        ("s3", ("s3", "h3")),
    ):
        entry = FlowEntry(Match(ip_dst=h3.ip), [Output(net.port(*out))])
        net.switch(sw_name).table.install(entry)
        rules[sw_name] = entry
    # A rule nothing matches: its counters must stay at zero / -1.
    cold = FlowEntry(Match(ip_dst=h3.ip, dport=81), [Output(1)], priority=10)
    net.switch("s1").table.install(cold)

    obs = Observer.attach(net)
    h3.bind("tcp", 80, lambda host, p: None)
    pkts = [
        h1.make_packet(h3.ip, dport=80, payload_size=PAYLOAD)
        for _ in range(N_PACKETS)
    ]
    for p in pkts:
        h1.send_packet(p)
    net.run()
    return net, obs, rules, cold, sum(p.size for p in pkts)


def test_per_rule_packet_and_byte_counters(chain):
    net, obs, rules, cold, total_bytes = chain
    snap = obs.snapshot()
    for sw_name, entry in rules.items():
        labels = dict(switch=sw_name, entry_id=entry.entry_id)
        assert snap.value("switch.rule.packets", **labels) == N_PACKETS
        assert snap.value("switch.rule.bytes", **labels) == total_bytes
        assert snap.value("switch.rule.last_hit_s", **labels) == entry.last_hit_s
        assert entry.last_hit_s > 0.0


def test_last_hit_ordering_follows_the_path(chain):
    net, obs, rules, cold, _ = chain
    # Each hop sees the last packet strictly later than the previous hop.
    assert rules["s1"].last_hit_s < rules["s2"].last_hit_s < rules["s3"].last_hit_s


def test_unmatched_rule_stays_cold(chain):
    net, obs, rules, cold, _ = chain
    snap = obs.snapshot()
    labels = dict(switch="s1", entry_id=cold.entry_id)
    assert snap.value("switch.rule.packets", **labels) == 0
    assert snap.value("switch.rule.bytes", **labels) == 0
    assert snap.value("switch.rule.last_hit_s", **labels) == -1.0


def test_per_switch_aggregates(chain):
    net, obs, rules, cold, _ = chain
    snap = obs.snapshot()
    for sw_name in ("s1", "s2", "s3"):
        assert snap.value("switch.forwarded.packets", switch=sw_name) == N_PACKETS
        assert snap.value("switch.punted.packets", switch=sw_name) == 0
    assert snap.value("switch.table.entries", switch="s1") == 2
    assert snap.value("switch.table.entries", switch="s2") == 1


def test_per_port_counters_match_the_path(chain):
    net, obs, rules, cold, total_bytes = chain
    snap = obs.snapshot()
    hops = [("h1", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "h3")]
    for src, dst in hops:
        tx = dict(node=src, port=net.port(src, dst))
        rx = dict(node=dst, port=net.port(dst, src))
        assert snap.value("port.tx.packets", **tx) == N_PACKETS
        assert snap.value("port.tx.bytes", **tx) == total_bytes
        assert snap.value("port.tx.drops", **tx) == 0
        # Heap is drained, so rx agrees exactly with the far end's tx.
        assert snap.value("port.rx.packets", **rx) == N_PACKETS
        assert snap.value("port.rx.bytes", **rx) == total_bytes
    # Nothing moved on the reverse directions or toward h2.
    assert snap.value("port.tx.packets", node="h3", port=net.port("h3", "s3")) == 0
    assert snap.value("port.tx.packets", node="s2", port=net.port("s2", "h2")) == 0
    assert snap.total("port.tx.drops") == 0


def test_host_stack_counters(chain):
    net, obs, rules, cold, total_bytes = chain
    snap = obs.snapshot()
    assert snap.value("host.stack.tx.packets", host="h1") == N_PACKETS
    assert snap.value("host.stack.tx.bytes", host="h1") == total_bytes
    assert snap.value("host.stack.rx.packets", host="h3") == N_PACKETS
    assert snap.value("host.stack.rx.bytes", host="h3") == total_bytes
    assert snap.value("host.stack.rx.packets", host="h2") == 0


def test_queue_gauges_and_cpu(chain):
    net, obs, rules, cold, _ = chain
    snap = obs.snapshot()
    # Drained run: every transmit backlog is empty, capacity is the budget.
    for ch in obs.channels():
        assert snap.value("link.queue.bytes", channel=ch.name) == 0
        assert (
            snap.value("link.queue.capacity.bytes", channel=ch.name)
            == ch.queue_bytes
        )
    assert snap.value("node.cpu.busy_s", node="h1") > 0
    assert snap.value("node.cpu.busy_s", node="s2") > 0


def test_packet_latency_histogram_fires_per_delivery(chain):
    net, obs, rules, cold, _ = chain
    snap = obs.snapshot()
    summary = snap.histogram("net.packet_latency_s", host="h3")
    assert summary["count"] == N_PACKETS
    assert summary["min"] > 0
    assert summary["max"] >= summary["p99"] >= summary["p50"] >= summary["min"]


def test_packet_latency_histogram_is_resolved_once_per_host(chain):
    """The per-delivery hook keeps the host's histogram instead of rebuilding
    its label key per packet — under the same snapshot key as before."""
    net, obs, rules, cold, _ = chain
    hist = obs.histogram("net.packet_latency_s", host="h3")
    assert hist.summary()["count"] == N_PACKETS
    calls = []
    resolve = obs.histogram
    obs.histogram = lambda name, **labels: calls.append(name) or resolve(name, **labels)
    h1, h3 = net.host("h1"), net.host("h3")
    for _ in range(3):
        h1.send_packet(h1.make_packet(h3.ip, sport=1000, dport=80, payload_size=64))
    net.run()
    assert calls == []  # h3 was already resolved by the fixture's traffic
    assert hist.summary()["count"] == N_PACKETS + 3
    assert ("net.packet_latency_s", (("host", "h3"),)) in obs.snapshot().histograms


def test_value_requires_unique_match(chain):
    net, obs, rules, cold, _ = chain
    snap = obs.snapshot()
    with pytest.raises(KeyError):
        snap.value("switch.rule.packets", switch="s1")  # two rules on s1
    with pytest.raises(KeyError):
        snap.value("switch.rule.packets", switch="nope")
    assert snap.total("switch.rule.packets", switch="s1") == N_PACKETS
