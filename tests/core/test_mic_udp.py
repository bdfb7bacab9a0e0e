"""MIC datagram mode: UDP m-flows through the rewriting fabric."""

import pytest

from repro.core import MicDatagramServer, deploy_mic
from repro.obs import JourneyRecorder
from repro.transport import UdpSocket
from tests.journey_rows import events


@pytest.fixture()
def dep():
    return deploy_mic(seed=17)


class TestUdpSocket:
    def test_plain_udp_roundtrip(self, dep):
        """Sanity: raw UDP over the baseline routing."""
        server = UdpSocket(dep.net.host("h16"), port=5353)
        client = UdpSocket(dep.net.host("h1"))
        got = {}

        def srv():
            dgram = yield server.recvfrom()
            server.sendto(dgram.data[::-1], dgram.src_ip, dgram.sport)

        def cli():
            client.sendto(b"query", dep.net.host("h16").ip, 5353)
            reply = yield client.recvfrom()
            got["reply"] = reply.data

        dep.sim.process(srv())
        dep.sim.process(cli())
        dep.run_for(5.0)
        assert got["reply"] == b"yreuq"

    def test_bytes_required(self, dep):
        sock = UdpSocket(dep.net.host("h1"))
        with pytest.raises(TypeError):
            sock.sendto("text", dep.net.host("h2").ip, 53)

    def test_closed_socket_rejects(self, dep):
        sock = UdpSocket(dep.net.host("h1"))
        sock.close()
        with pytest.raises(OSError):
            sock.sendto(b"x", dep.net.host("h2").ip, 53)


class TestMicDatagrams:
    def _channel(self, dep, **kw):
        server = MicDatagramServer(dep.net.host("h16"), 5300)
        endpoint = dep.endpoint("h1")
        state = {}

        def client():
            sock = yield from endpoint.connect_datagram(
                "h16", service_port=5300, **kw
            )
            state["sock"] = sock
            sock.send(b"ping-over-mimicry")
            reply = yield sock.recv()
            state["reply"] = reply

        def srv():
            dgram = yield server.recv()
            state["server_saw"] = dgram
            server.reply(dgram, dgram.data.upper())

        dep.sim.process(client())
        dep.sim.process(srv())
        dep.run_for(20.0)
        return state

    def test_roundtrip(self, dep):
        state = self._channel(dep, n_mns=3)
        assert state["reply"].data == b"PING-OVER-MIMICRY"

    def test_server_sees_mimic_source(self, dep):
        state = self._channel(dep, n_mns=3)
        assert state["server_saw"].src_ip != dep.net.host("h1").ip

    def test_client_sees_entry_as_replier(self, dep):
        state = self._channel(dep, n_mns=3)
        sock = state["sock"]
        assert state["reply"].src_ip == sock.entry_ip
        assert state["reply"].sport == sock.entry_port

    def test_rules_match_udp_not_tcp(self, dep):
        self._channel(dep, n_mns=2)
        plan = next(iter(dep.mic.channels.values())).flows[0]
        assert plan.proto == "udp"
        from repro.core import MIC_PRIORITY

        protos = {
            e.match.proto
            for sw in dep.net.switches()
            for e in sw.table.entries
            if e.priority == MIC_PRIORITY
        }
        assert protos == {"udp"}

    def test_no_real_pair_on_interior(self, dep):
        journey = JourneyRecorder.attach(dep.net)
        self._channel(dep, n_mns=3)
        plan = next(iter(dep.mic.channels.values())).flows[0]
        first_mn, last_mn = plan.mn_names[0], plan.mn_names[-1]
        real = {str(dep.net.host("h1").ip), str(dep.net.host("h16").ip)}
        examined = 0
        for ev in events(journey, "switch.egress"):
            if ev.where in (first_mn, last_mn):
                continue
            assert set(ev["header"][:2]) != real
            examined += 1
        assert examined, "no interior egress was recorded"

    def test_tcp_and_udp_channels_coexist(self, dep):
        """A TCP and a UDP channel between the same pair never conflict."""
        server_udp = MicDatagramServer(dep.net.host("h16"), 5301)
        server_tcp = dep.server("h16", 5302)
        endpoint = dep.endpoint("h1")
        state = {}

        def client():
            dsock = yield from endpoint.connect_datagram("h16", service_port=5301)
            stream = yield from endpoint.connect("h16", service_port=5302)
            dsock.send(b"dgram")
            stream.send(b"strm!")
            d = yield dsock.recv()
            state["udp"] = d.data
            state["tcp"] = yield from stream.recv_exactly(5)

        def srv_udp():
            d = yield server_udp.recv()
            server_udp.reply(d, d.data)

        def srv_tcp():
            stream = yield server_tcp.accept()
            data = yield from stream.recv_exactly(5)
            stream.send(data)

        dep.sim.process(client())
        dep.sim.process(srv_udp())
        dep.sim.process(srv_tcp())
        dep.run_for(20.0)
        assert state == {"udp": b"dgram", "tcp": b"strm!"}
