"""Integration tests reproducing the paper's security analysis (Sec V)."""

import pytest

from repro.attacks import (
    ObservationPoint,
    analyze_position,
    correlate_at_mn,
    estimate_flow_sizes,
    observe_switches,
    size_estimate_error,
    unlinkability_holds,
)
from repro.core import MicEndpoint, MicServer, MimicController
from repro.net import Network, fat_tree
from repro.obs import JourneyRecorder
from repro.sdn import Controller, L3ShortestPathApp
from tests.journey_rows import events


def build(seed=0, **mic_kw):
    net = Network(fat_tree(4), seed=seed)
    ctrl = Controller(net)
    mic = ctrl.register(MimicController(**mic_kw))
    ctrl.register(L3ShortestPathApp())
    return net, ctrl, mic


def run_channel(net, mic, payload=b"x" * 5000, reply=b"y" * 100, **kw):
    """Establish h1 -> h16 channel, exchange data, return the channel plan."""
    server = MicServer(net.host("h16"), 80)
    endpoint = MicEndpoint(net.host("h1"), mic)
    state = {}

    def client():
        stream = yield from endpoint.connect("h16", service_port=80, **kw)
        state["client"] = stream
        stream.send(payload)
        data = yield from stream.recv_exactly(len(reply))
        state["done"] = True

    def srv():
        stream = yield server.accept()
        yield from stream.recv_exactly(len(payload))
        stream.send(reply)

    net.sim.process(client())
    net.sim.process(srv())
    net.run(until=60.0)
    assert state.get("done"), "channel data exchange did not complete"
    return next(iter(mic.channels.values()))


class TestCompromisePositions:
    """Sec V 'Compromise switches': what each position learns."""

    def _setup(self, **kw):
        net, ctrl, mic = build()
        points = observe_switches(net, net.topo.switches())
        channel = run_channel(net, mic, **kw)
        plan = channel.flows[0]
        return net, points, plan

    def test_pre_first_mn_sees_sender_only(self):
        net, points, plan = self._setup(n_mns=2)
        h1_ip, h16_ip = str(net.host("h1").ip), str(net.host("h16").ip)
        first_mn_pos = plan.mn_positions[0]
        pre = [n for n in plan.walk[1:first_mn_pos]
               if net.topo.kind(n) == "switch"]
        for sw in pre:
            report = analyze_position(points[sw], h1_ip, h16_ip)
            assert report.saw_sender
            assert not report.saw_receiver

    def test_post_last_mn_sees_receiver_only(self):
        net, points, plan = self._setup(n_mns=2)
        h1_ip, h16_ip = str(net.host("h1").ip), str(net.host("h16").ip)
        last_mn_pos = plan.mn_positions[-1]
        post = [n for n in plan.walk[last_mn_pos + 1 : -1]
                if net.topo.kind(n) == "switch"]
        for sw in post:
            report = analyze_position(points[sw], h1_ip, h16_ip)
            assert report.saw_receiver
            assert not report.saw_sender

    def test_between_mns_sees_neither(self):
        net, points, plan = self._setup(n_mns=2)
        h1_ip, h16_ip = str(net.host("h1").ip), str(net.host("h16").ip)
        first, last = plan.mn_positions[0], plan.mn_positions[-1]
        between = [
            plan.walk[j]
            for j in range(first + 1, last)
            if net.topo.kind(plan.walk[j]) == "switch"
        ]
        for sw in between:
            report = analyze_position(points[sw], h1_ip, h16_ip)
            assert not report.saw_sender
            assert not report.saw_receiver

    def test_no_single_switch_links_the_pair(self):
        """The paper's headline claim: no single observation point sees both
        real addresses."""
        net, points, plan = self._setup(n_mns=3)
        h1_ip, h16_ip = str(net.host("h1").ip), str(net.host("h16").ip)
        assert unlinkability_holds(list(points.values()), h1_ip, h16_ip)

    def test_baseline_tcp_is_linkable_everywhere(self):
        """Contrast: without MIC, every on-path switch sees the real pair."""
        from repro.transport import TcpStack

        net = Network(fat_tree(4))
        ctrl = Controller(net)
        ctrl.register(L3ShortestPathApp())
        points = observe_switches(net, net.topo.switches())
        client, server = TcpStack(net.host("h1")), TcpStack(net.host("h16"))
        listener = server.listen(80)

        def srv():
            conn = yield listener.accept()
            yield from conn.recv_exactly(4)

        def cli():
            conn = yield client.connect(server.host.ip, 80)
            conn.send(b"data")

        net.sim.process(srv())
        net.sim.process(cli())
        net.run(until=10.0)
        h1_ip, h16_ip = str(net.host("h1").ip), str(net.host("h16").ip)
        assert not unlinkability_holds(list(points.values()), h1_ip, h16_ip)


class TestMnCorrelation:
    """Sec IV-C: correlation at an MN, with and without partial multicast."""

    def test_content_correlation_succeeds_without_decoys(self):
        net, ctrl, mic = build()
        # Observe everything, then find the first MN afterwards.
        points = observe_switches(net, net.topo.switches())
        channel = run_channel(net, mic, n_mns=2, decoys=0)
        first_mn = channel.flows[0].mn_names[0]
        result = correlate_at_mn(points[first_mn])
        assert result.match_rate > 0.9
        # Without decoys each ingress packet has exactly one egress twin.
        assert result.confidence == pytest.approx(1.0)

    def test_partial_multicast_reduces_confidence(self):
        net, ctrl, mic = build()
        points = observe_switches(net, net.topo.switches())
        channel = run_channel(net, mic, n_mns=2, decoys=2)
        first_mn = channel.flows[0].mn_names[0]
        result = correlate_at_mn(points[first_mn])
        assert result.match_rate > 0.9  # still matched by content...
        assert result.mean_candidates > 1.5  # ...but among several copies
        assert result.confidence < 0.7

    def test_decoy_packets_die_at_next_hop(self):
        net, ctrl, mic = build()
        journey = JourneyRecorder.attach(net)
        channel = run_channel(net, mic, n_mns=2, decoys=2)
        # Decoy copies (multicast copies never delivered) were made, and
        # each died in the pipeline of the switch it reached next: every
        # packet that reached a host was addressed to it, and no decoy ever
        # leaked to an application.
        rows = events(journey)
        delivered = {ev.uid for ev in rows if ev.kind == "host.rx"}
        decoys = {
            ev.uid for ev in rows
            if ev.kind == "switch.egress" and ev["parent_uid"] != ev.uid
        } - delivered
        assert decoys, "no decoy copy was recorded"
        last = {ev.uid: ev.kind for ev in rows}
        assert {last[uid] for uid in decoys} == {"switch.ingress"}
        assert events(journey, "host.foreign_drop") == []
        assert [h.packets_refused for h in net.hosts()] == [0] * len(net.hosts())


class TestSizeAnalysis:
    """Sec V 'Size- or rate-based traffic-analysis'."""

    def _observed_error(self, n_flows: int, payload_bytes: int = 60_000) -> float:
        net, ctrl, mic = build(seed=n_flows)
        # The attacker watches the initiator's edge switch — the best place
        # to total a sender's traffic.
        point = ObservationPoint(net, "p0e0")
        run_channel(net, mic, payload=b"z" * payload_bytes, n_flows=n_flows)
        estimates = [
            e
            for e in estimate_flow_sizes(point)
            if e.signature[0] == str(net.host("h1").ip)
        ]
        return size_estimate_error(payload_bytes, estimates)

    def test_single_flow_size_fully_visible(self):
        # One m-flow: the edge switch sees essentially the whole volume
        # (plus small header/overhead error).
        assert self._observed_error(1) < 0.10

    def test_multiflow_hides_size(self):
        err1 = self._observed_error(1)
        err4 = self._observed_error(4)
        assert err4 > err1
        assert err4 > 0.3  # best per-flow guess misses most of the volume
