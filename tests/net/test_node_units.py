"""Unit tests for node/link internals: CPU meters, backlog math, params."""

import dataclasses

import pytest

from repro.net import Network, NetParams, linear
from repro.net.node import CpuMeter
from repro.obs import JourneyRecorder
from tests.journey_rows import events

#: every delay and CPU cost NetParams carries; each must be >= 0
COSTS = (
    "link_delay_s",
    "switch_forward_delay_s",
    "setfield_delay_s",
    "switch_forward_cpu_s",
    "setfield_cpu_s",
    "host_stack_delay_s",
    "host_stack_cpu_s",
    "host_per_byte_cpu_s",
    "flow_install_delay_s",
    "packet_in_delay_s",
    "packet_out_delay_s",
    "controller_request_cpu_s",
)


class TestCpuMeter:
    def test_consume_accumulates(self):
        m = CpuMeter()
        m.consume(0.5)
        m.consume(0.25)
        assert m.busy_s == 0.75

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CpuMeter().consume(-1)

    def test_utilization_window(self):
        m = CpuMeter()
        m.reset(now=10.0)
        m.consume(2.0)
        assert m.utilization(now=14.0) == pytest.approx(0.5)
        assert m.utilization(now=14.0, cores=2) == pytest.approx(0.25)

    def test_utilization_zero_window(self):
        m = CpuMeter()
        m.reset(now=5.0)
        assert m.utilization(now=5.0) == 0.0

    def test_reset_clears(self):
        m = CpuMeter()
        m.consume(1.0)
        m.reset(now=0.0)
        assert m.busy_s == 0.0


class TestChannelName:
    def test_name_is_the_directed_port_label_and_a_plain_attribute(self):
        net = Network(linear(2, hosts_per_switch=1))
        link = net.link_between("s1", "s2")
        fwd, rev = link.forward, link.reverse
        assert fwd.name == f"s1[{fwd.src_port}]->s2[{fwd.dst_port}]"
        assert rev.name == f"s2[{rev.src_port}]->s1[{rev.dst_port}]"
        assert fwd.name is fwd.name  # rendered once, not per read

    def test_equal_fabrics_name_their_channels_equally(self):
        first = [
            ch.name
            for link in Network(linear(3)).links
            for ch in (link.forward, link.reverse)
        ]
        second = [
            ch.name
            for link in Network(linear(3)).links
            for ch in (link.forward, link.reverse)
        ]
        assert first == second and len(set(first)) == len(first)

    def test_trace_records_carry_the_channel_name(self):
        """A channel's journey rows name it by its directed port label."""
        net = Network(linear(1, hosts_per_switch=2))
        journey = JourneyRecorder.attach(net)
        ch = net.host("h1").ports[0]
        ch.send(net.host("h1").make_packet(net.host("h2").ip, payload_size=10))
        (ev,) = events(journey, "link.tx")
        assert ev.where == ch.name


class TestChannelBacklog:
    def test_backlog_tracks_queued_bytes(self):
        net = Network(linear(1, hosts_per_switch=2))
        h1 = net.host("h1")
        ch = h1.ports[0]
        assert ch.backlog_bytes() == 0
        pkt = h1.make_packet(net.host("h2").ip, payload_size=10_000)
        ch.send(pkt)
        # Transmission of ~10 kB at 1 Gb/s is pending: backlog is positive.
        assert ch.backlog_bytes() > 0
        net.run()
        assert ch.backlog_bytes() == 0

    @pytest.mark.parametrize("fluid_fraction", [0.0, 0.4, 0.999, 2.0])
    def test_send_uses_the_public_readers_numbers(self, fluid_fraction):
        # send() works the debited bandwidth, the backlog and the
        # serialization time out inline, and the journey's wrapper on it
        # reads them off queue_ahead(); both must be exactly what
        # effective_bandwidth_bps() / backlog_bytes() report at that
        # instant (send's own by the queue check and the watermark).
        class Spy:
            """The channel's link rows, as the journey's wrapper on its
            ``send`` recorded them."""

            def __init__(self, net, ch):
                self.rec, self.name = JourneyRecorder.attach(net), ch.name

            def _rows(self, kind):
                return [ev for ev in events(self.rec, kind) if ev.where == self.name]

            @property
            def tx(self):
                return [
                    (ev["queue_wait_s"], ev["serialize_s"], ev["backlog_bytes"])
                    for ev in self._rows("link.tx")
                ]

            @property
            def drops(self):
                return [ev["backlog_bytes"] for ev in self._rows("link.drop")]

        net = Network(
            linear(1, hosts_per_switch=2),
            params=NetParams(link_queue_bytes=30_000),
        )
        h1 = net.host("h1")
        ch = h1.ports[0]
        ch.fluid_load_bps = ch.bandwidth_bps * fluid_fraction
        spy = Spy(net, ch)
        want_tx, want_drops = [], []
        for n in range(6):
            net.run(until=n * 20e-6)  # part of the queue drains in between
            pkt = h1.make_packet(net.host("h2").ip, payload_size=9_000 + n)
            bandwidth, backlog = ch.effective_bandwidth_bps(), ch.backlog_bytes()
            start = max(net.sim.now, ch._tx_free_at)
            wait_s = start - net.sim.now
            if ch.send(pkt):
                want_tx.append((wait_s, pkt.size * 8.0 / bandwidth, backlog))
                assert backlog + pkt.size <= ch.queue_bytes
                assert ch._tx_free_at == start + pkt.size * 8.0 / bandwidth
            else:
                assert backlog + pkt.size > ch.queue_bytes
                want_drops.append(backlog)
        assert spy.tx == want_tx and spy.drops == want_drops
        # both outcomes were exercised, the accepted ones behind a real queue
        assert len(want_tx) >= 3 and want_tx[-1][2] > 0 and want_drops

    def test_down_channel_drops(self):
        net = Network(linear(1, hosts_per_switch=2))
        h1 = net.host("h1")
        ch = h1.ports[0]
        ch.up = False
        assert not ch.send(h1.make_packet(net.host("h2").ip))
        assert ch.stats.drops == 1

    def test_in_flight_packet_lost_when_link_dies(self):
        net = Network(linear(1, hosts_per_switch=2))
        h1 = net.host("h1")
        s1 = net.switch("s1")
        seen = []
        s1.add_mirror_tap(lambda p, port, d: seen.append(p.uid))
        ch = h1.ports[0]
        ch.send(h1.make_packet(net.host("h2").ip, payload_size=100))
        net.link_between("h1", "s1").set_up(False)
        net.run()
        assert seen == []  # delivery suppressed mid-flight

    def test_transmit_unknown_port_rejected(self):
        net = Network(linear(1, hosts_per_switch=2))
        h1 = net.host("h1")
        with pytest.raises(ValueError):
            h1.transmit(h1.make_packet(net.host("h2").ip), port=9)

    def test_send_on_an_unwired_nic_raises_before_booking_anything(self):
        from repro.net import Host, ip, mac
        from repro.sim import Simulator

        host = Host(Simulator(), "lonely", NetParams(), ip("10.0.0.9"), mac(9))
        with pytest.raises(ValueError, match="^lonely: no channel on port 0$"):
            host.send_packet(host.make_packet(ip("10.0.0.1")))
        assert host.packets_sent == 0 and host.cpu.busy_s == 0.0
        assert host.sim.peek() == float("inf")  # nothing was scheduled


class TestParams:
    def test_tx_time(self):
        p = NetParams(link_bandwidth_bps=1e9)
        assert p.tx_time(125) == pytest.approx(1e-6)

    def test_frozen(self):
        p = NetParams()
        with pytest.raises(Exception):
            p.link_delay_s = 1.0

    @pytest.mark.parametrize("name", COSTS)
    def test_a_negative_delay_or_cpu_cost_is_refused_by_name(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            NetParams(**{name: -1e-9})
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            NetParams(**{name: float("nan")})
        assert getattr(NetParams(**{name: 0.0}), name) == 0.0

    @pytest.mark.parametrize("bandwidth", [0.0, -1e9, float("nan")])
    def test_link_bandwidth_must_be_positive(self, bandwidth):
        with pytest.raises(ValueError, match="^link_bandwidth_bps must be > 0"):
            NetParams(link_bandwidth_bps=bandwidth)

    def test_every_delay_and_cost_is_checked(self):
        timed = {
            f.name for f in dataclasses.fields(NetParams)
            if f.name.endswith(("_delay_s", "_cpu_s"))
        }
        assert timed == set(COSTS)

    def test_overrides_flow_through_network(self):
        params = NetParams(link_bandwidth_bps=5e8, link_delay_s=1e-3)
        net = Network(linear(1, hosts_per_switch=2), params=params)
        ch = net.host("h1").ports[0]
        assert ch.bandwidth_bps == 5e8
        assert ch.delay_s == 1e-3

    def test_per_edge_overrides(self):
        from repro.net.topology import Topology

        topo = Topology("t")
        topo.add_switch("s1")
        topo.add_host("h1")
        topo.add_host("h2")
        topo.graph.add_edge("h1", "s1", bandwidth_bps=1e7)
        topo.graph.add_edge("h2", "s1")
        net = Network(topo)
        slow = net.host("h1").ports[0]
        fast = net.host("h2").ports[0]
        assert slow.bandwidth_bps == 1e7
        assert fast.bandwidth_bps == net.params.link_bandwidth_bps


class TestHostBindings:
    def test_double_bind_rejected(self):
        net = Network(linear(1, hosts_per_switch=2))
        h1 = net.host("h1")
        h1.bind("tcp", 80, lambda h, p: None)
        with pytest.raises(ValueError):
            h1.bind("tcp", 80, lambda h, p: None)

    def test_ephemeral_ports_unique_until_wrap(self):
        net = Network(linear(1, hosts_per_switch=2))
        h1 = net.host("h1")
        seen = {h1.ephemeral_port() for _ in range(1000)}
        assert len(seen) == 1000

    def test_default_handler_catches_unbound(self):
        from repro.net import FlowEntry, Match, Output

        net = Network(linear(1, hosts_per_switch=2))
        h1, h2 = net.host("h1"), net.host("h2")
        fallback = []
        h2.default_handler = lambda h, p: fallback.append(p.dport)
        net.switch("s1").table.install(
            FlowEntry(Match(), [Output(net.port("s1", "h2"))])
        )
        h1.send_packet(h1.make_packet(h2.ip, dport=4242))
        net.run()
        assert fallback == [4242]
