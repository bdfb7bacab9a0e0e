"""End-to-end integration tests for MIC on the simulated fabric."""

import pytest

from repro.core import MicEndpoint, MicServer, MimicController, MIC_PRIORITY, deploy_mic
from repro.net import Network, fat_tree
from repro.obs import JourneyRecorder
from repro.sdn import Controller, L3ShortestPathApp
from tests.journey_rows import channel_dst, events, link_headers


def build(topo=None, seed=0, **mic_kw):
    net = Network(topo or fat_tree(4), seed=seed)
    ctrl = Controller(net)
    mic = ctrl.register(MimicController(**mic_kw))
    ctrl.register(L3ShortestPathApp())
    return net, ctrl, mic


def run_proc(net, gen):
    result = {}

    def wrapper():
        result["value"] = yield from gen
        return result["value"]

    net.sim.process(wrapper())
    net.run(until=30.0)
    return result.get("value")


class TestEstablishment:
    def test_grant_shape(self):
        net, ctrl, mic = build()
        grant = run_proc(net, mic.establish("h1", "h16", service_port=80,
                                            n_flows=2, n_mns=3))
        assert grant.flow_count == 2
        assert mic.live_channels == 1
        for fg in grant.flows:
            assert fg.entry_ip != net.host("h16").ip  # entry hides responder
            assert 1024 <= fg.entry_port <= 65535
            assert 20000 <= fg.source_port <= 60000

    def test_mn_count_respected(self):
        net, ctrl, mic = build()
        run_proc(net, mic.establish("h1", "h16", service_port=80, n_mns=4))
        plan = next(iter(mic.channels.values())).flows[0]
        assert len(plan.mn_positions) == 4

    def test_same_host_rejected(self):
        net, ctrl, mic = build()
        from repro.core.controller import EstablishError

        with pytest.raises(EstablishError):
            run_proc(net, mic.establish("h1", "h1", service_port=80))

    def test_unknown_responder_rejected(self):
        net, ctrl, mic = build()
        from repro.core.controller import EstablishError

        with pytest.raises(EstablishError):
            run_proc(net, mic.establish("h1", "no-such-service"))

    def test_path_stretched_when_short(self):
        """h1 and h2 share an edge switch (1 switch on the shortest path);
        asking for 3 MNs must stretch the walk (Sec IV-B2)."""
        net, ctrl, mic = build()
        run_proc(net, mic.establish("h1", "h2", service_port=80, n_mns=3))
        plan = next(iter(mic.channels.values())).flows[0]
        assert len(plan.mn_positions) == 3
        switch_visits = [n for n in plan.walk if net.topo.kind(n) == "switch"]
        assert len(switch_visits) >= 3

    def test_flow_ids_unique_across_channels(self):
        net, ctrl, mic = build()

        def many():
            for i in range(2, 10):
                yield from mic.establish("h1", f"h{i + 7}", service_port=80,
                                         n_flows=2)

        run_proc(net, many())
        fids = [p.flow_id for ch in mic.channels.values() for p in ch.flows]
        assert len(set(fids)) == len(fids)


class TestDataPath:
    def _channel(self, net, mic, initiator="h1", responder="h16", **kw):
        server = MicServer(net.host(responder), 80)
        endpoint = MicEndpoint(net.host(initiator), mic)
        result = {}

        def client():
            stream = yield from endpoint.connect(responder, service_port=80, **kw)
            result["client"] = stream

        def srv():
            stream = yield server.accept()
            result["server"] = stream

        net.sim.process(client())
        net.sim.process(srv())
        return endpoint, server, result

    def test_roundtrip_single_flow(self):
        net, ctrl, mic = build()
        endpoint, server, result = self._channel(net, mic)

        def talk():
            while "client" not in result:
                yield net.sim.timeout(0.01)
            result["client"].send(b"hello mic")
            while "server" not in result:
                yield net.sim.timeout(0.01)
            data = yield from result["server"].recv_exactly(9)
            result["server"].send(data.upper())
            result["echo"] = yield from result["client"].recv_exactly(9)

        net.sim.process(talk())
        net.run(until=30.0)
        assert result["echo"] == b"HELLO MIC"

    def test_responder_sees_fake_source(self):
        """The delivered packet carries a mimic source (paper Fig 2: the
        last switch restores only the destination)."""
        net, ctrl, mic = build()
        endpoint, server, result = self._channel(net, mic)

        def talk():
            while "client" not in result:
                yield net.sim.timeout(0.01)
            result["client"].send(b"x")
            while "server" not in result:
                yield net.sim.timeout(0.01)
            yield from result["server"].recv_exactly(1)

        net.sim.process(talk())
        net.run(until=30.0)
        server_conn = result["server"].conns[0]
        assert server_conn.remote_ip != net.host("h1").ip

    def test_large_transfer_multi_flow(self):
        net, ctrl, mic = build()
        endpoint, server, result = self._channel(net, mic, n_flows=3)
        payload = bytes(range(256)) * 400  # 100 KiB

        def talk():
            while "client" not in result:
                yield net.sim.timeout(0.01)
            assert result["client"].flow_count == 3
            result["client"].send(payload)
            while "server" not in result:
                yield net.sim.timeout(0.01)
            result["got"] = yield from result["server"].recv_exactly(len(payload))

        net.sim.process(talk())
        net.run(until=60.0)
        assert result["got"] == payload
        # All three m-flow connections carried some bytes.
        for conn in result["client"].conns:
            assert conn.bytes_sent > 0

    @pytest.mark.parametrize("size,n_flows", [
        (25_600, 3),  # one m-flow's FIN used to end the stream mid-transfer
        (2_560, 3), (25_600, 1), (25_600, 2),
    ])
    def test_stream_ends_only_when_every_m_flow_has(self, size, n_flows):
        dep = deploy_mic(fat_tree(4), seed=0)
        server = dep.server("h16", 7000)
        payload = bytes(range(256)) * (size // 256)
        got = {}

        def srv():
            stream = yield server.accept()
            got["data"] = yield from stream.recv_exactly(size)
            got["eof"] = yield stream.recv(1)

        def cli():
            stream = yield from dep.endpoint("h1").connect(
                "h16", service_port=7000, n_flows=n_flows, n_mns=3)
            stream.send(payload)
            stream.close()

        dep.sim.process(srv())
        dep.sim.process(cli())
        dep.run(until=5.0)
        assert got == {"data": payload, "eof": b""}

    def test_intermediate_switches_never_see_real_pair(self):
        """Unlinkability: no switch between the first and last MN ever
        forwards a packet carrying both real addresses (Sec V)."""
        net, ctrl, mic = build()
        journey = JourneyRecorder.attach(net)
        endpoint, server, result = self._channel(net, mic, n_mns=3)

        def talk():
            while "client" not in result:
                yield net.sim.timeout(0.01)
            result["client"].send(b"secret")
            while "server" not in result:
                yield net.sim.timeout(0.01)
            yield from result["server"].recv_exactly(6)
            result["server"].send(b"answer")
            yield from result["client"].recv_exactly(6)

        net.sim.process(talk())
        net.run(until=30.0)
        h1_ip, h16_ip = str(net.host("h1").ip), str(net.host("h16").ip)
        plan = next(iter(mic.channels.values())).flows[0]
        first_mn, last_mn = plan.mn_names[0], plan.mn_names[-1]
        examined = 0
        for ev in events(journey, "switch.egress"):
            if ev.where in (first_mn, last_mn):
                continue
            pair = ev["header"][:2]
            assert pair != (h1_ip, h16_ip) and pair != (h16_ip, h1_ip), (
                f"real pair visible at {ev.where}"
            )
            examined += 1
        assert examined, "no interior egress was recorded"

    def test_mpls_labels_on_interior_segments_only(self):
        net, ctrl, mic = build()
        journey = JourneyRecorder.attach(net)
        endpoint, server, result = self._channel(net, mic, n_mns=3)

        def talk():
            while "client" not in result:
                yield net.sim.timeout(0.01)
            result["client"].send(b"x")
            while "server" not in result:
                yield net.sim.timeout(0.01)
            yield from result["server"].recv_exactly(1)

        net.sim.process(talk())
        net.run(until=30.0)
        # Hosts never receive a labeled packet: check the header on every
        # link into a host.
        into_hosts = [
            (ev, header) for ev, header in link_headers(journey)
            if channel_dst(ev.where).startswith("h")
        ]
        assert into_hosts, "no transmission into a host was recorded"
        for ev, header in into_hosts:
            assert header[4] is None, f"labeled packet delivered over {ev.where}"

    def test_hidden_service_by_nickname(self):
        net, ctrl, mic = build()
        mic.register_hidden_service("search", "h16", 80)
        server = MicServer(net.host("h16"), 80)
        endpoint = MicEndpoint(net.host("h1"), mic)
        result = {}

        def client():
            stream = yield from endpoint.connect("search")
            stream.send(b"query")
            result["reply"] = yield from stream.recv_exactly(5)

        def srv():
            stream = yield server.accept()
            data = yield from stream.recv_exactly(5)
            stream.send(data[::-1])

        net.sim.process(client())
        net.sim.process(srv())
        net.run(until=30.0)
        assert result["reply"] == b"yreuq"

    def test_channel_reuse_returns_same_stream(self):
        net, ctrl, mic = build()
        server = MicServer(net.host("h16"), 80)
        endpoint = MicEndpoint(net.host("h1"), mic)
        result = {}

        def client():
            s1 = yield from endpoint.connect("h16", service_port=80, reuse=True)
            s2 = yield from endpoint.connect("h16", service_port=80, reuse=True)
            result["same"] = s1 is s2

        net.sim.process(client())
        net.run(until=30.0)
        assert result["same"] is True
        assert mic.live_channels == 1


class TestLifecycle:
    def test_teardown_removes_rules_and_recycles(self):
        net, ctrl, mic = build()
        grant = run_proc(net, mic.establish("h1", "h16", service_port=80))
        assert mic.flow_ids.live_count == 1
        assert mic.registry.total_keys() > 0
        mic.teardown(grant.channel_id)
        net.run(until=net.sim.now + 1.0)
        assert mic.live_channels == 0
        assert mic.flow_ids.live_count == 0
        assert mic.registry.total_keys() == 0
        # No MIC-priority rules left anywhere.
        for sw in net.switches():
            assert not any(e.priority == MIC_PRIORITY for e in sw.table.entries)

    def test_teardown_unknown_channel_noop(self):
        net, ctrl, mic = build()
        mic.teardown(424242)

    def test_idle_expiry(self):
        net, ctrl, mic = build(idle_timeout_s=5.0)
        observed = {}

        def scenario():
            yield from mic.establish("h1", "h16", service_port=80)
            observed["live_after_establish"] = mic.live_channels
            yield net.sim.timeout(12.0)
            observed["live_after_idle"] = mic.live_channels

        net.sim.process(scenario())
        net.run(until=30.0)
        assert observed == {"live_after_establish": 1, "live_after_idle": 0}

    def test_notify_keeps_channel_alive(self):
        net, ctrl, mic = build(idle_timeout_s=5.0)
        server = MicServer(net.host("h16"), 80)
        endpoint = MicEndpoint(net.host("h1"), mic)
        endpoint.notify_interval_s = 2.0
        result = {}

        def client():
            stream = yield from endpoint.connect("h16", service_port=80)
            result["stream"] = stream

        net.sim.process(client())
        net.run(until=20.0)
        assert mic.live_channels == 1  # notifications kept it alive

    def test_client_shutdown_message(self):
        net, ctrl, mic = build()
        server = MicServer(net.host("h16"), 80)
        endpoint = MicEndpoint(net.host("h1"), mic)

        def client():
            stream = yield from endpoint.connect("h16", service_port=80)
            yield from endpoint.shutdown(stream)

        net.sim.process(client())
        net.run(until=30.0)
        assert mic.live_channels == 0


class TestCollisionFreedom:
    def test_match_keys_unique_per_switch_under_load(self):
        """The paper's central correctness invariant, checked on the actual
        flow tables after establishing many channels."""
        net, ctrl, mic = build()

        def many():
            pairs = [(f"h{i}", f"h{17 - i}") for i in range(1, 8)]
            for a, b in pairs:
                yield from mic.establish(a, b, service_port=80, n_flows=2,
                                         n_mns=3)

        run_proc(net, many())
        assert mic.live_channels == 7
        for sw in net.switches():
            keys = [
                (e.match.key())
                for e in sw.table.entries
                if e.priority == MIC_PRIORITY
            ]
            assert len(keys) == len(set(keys)), f"duplicate match on {sw.name}"

    def test_channels_with_decoys_stay_collision_free(self):
        net, ctrl, mic = build()

        def many():
            for i in range(2, 8):
                yield from mic.establish("h1", f"h{i + 8}", service_port=80,
                                         decoys=2)

        run_proc(net, many())
        for sw in net.switches():
            keys = [
                e.match.key()
                for e in sw.table.entries
                if e.priority in (MIC_PRIORITY, 60)
            ]
            assert len(keys) == len(set(keys))
