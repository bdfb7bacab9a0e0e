"""Integration tests for simulated TCP over the data plane."""

import random

import pytest

from repro.net import Network, fat_tree, linear
from repro.sdn import Controller, L3ShortestPathApp
from repro.transport import MSS, TcpError, TcpStack


def build_net(topo=None):
    net = Network(topo or linear(1, hosts_per_switch=2))
    ctrl = Controller(net)
    ctrl.register(L3ShortestPathApp())
    return net


def stacks(net, a="h1", b="h2"):
    return TcpStack(net.host(a)), TcpStack(net.host(b))


def test_three_way_handshake_establishes():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    results = {}

    def srv():
        conn = yield listener.accept()
        results["server"] = conn

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        results["client"] = conn

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert results["client"].established
    assert results["server"].established
    assert results["client"].remote_ip == server.host.ip


def test_send_small_message():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    got = {}

    def srv():
        conn = yield listener.accept()
        got["data"] = yield from conn.recv_exactly(5)

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        conn.send(b"hello")

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert got["data"] == b"hello"


def test_large_transfer_segmented_and_intact():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    payload = bytes(range(256)) * 512  # 128 KiB, ~90 segments
    got = {}

    def srv():
        conn = yield listener.accept()
        got["data"] = yield from conn.recv_exactly(len(payload))

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        conn.send(payload)

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert got["data"] == payload


def test_multiple_sends_preserve_order():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    got = {}

    def srv():
        conn = yield listener.accept()
        got["data"] = yield from conn.recv_exactly(12)

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        conn.send(b"abc")
        conn.send(b"def")
        conn.send(b"ghijkl")

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert got["data"] == b"abcdefghijkl"


def test_bidirectional_echo():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    result = {}

    def srv():
        conn = yield listener.accept()
        data = yield from conn.recv_exactly(10)
        conn.send(data.upper())

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        conn.send(b"x" * 10)
        result["reply"] = yield from conn.recv_exactly(10)

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert result["reply"] == b"X" * 10


def test_two_concurrent_connections_isolated():
    net = build_net(linear(1, hosts_per_switch=3))
    s_h3 = TcpStack(net.host("h3"))
    listener = s_h3.listen(80)
    received = []

    def srv():
        while True:
            conn = yield listener.accept()

            def serve(c):
                data = yield from c.recv_exactly(4)
                received.append(data)

            net.sim.process(serve(conn))

    def cli(host_name, msg):
        stack = TcpStack(net.host(host_name))
        conn = yield stack.connect(s_h3.host.ip, 80)
        conn.send(msg)

    net.sim.process(srv())
    net.sim.process(cli("h1", b"from" ))
    net.sim.process(cli("h2", b"HOST"))
    net.run(until=2.0)
    assert sorted(received) == [b"HOST", b"from"]


def test_same_host_pair_two_connections():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    received = []

    def srv():
        for _ in range(2):
            conn = yield listener.accept()

            def serve(c):
                data = yield from c.recv_exactly(2)
                received.append((c.remote_port, data))

            net.sim.process(serve(conn))

    def cli():
        c1 = yield client.connect(server.host.ip, 80)
        c2 = yield client.connect(server.host.ip, 80)
        c1.send(b"c1")
        c2.send(b"c2")

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert len(received) == 2
    assert {d for _, d in received} == {b"c1", b"c2"}
    assert len({p for p, _ in received}) == 2  # distinct client ports


def test_fin_gives_eof():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    got = {}

    def srv():
        conn = yield listener.accept()
        data = yield from conn.recv_exactly(3)
        eof = yield conn.recv(10)
        got["data"], got["eof"] = data, eof

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        conn.send(b"bye")
        conn.close()

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert got["data"] == b"bye"
    assert got["eof"] == b""


def test_recv_exactly_raises_on_early_eof():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    errors = []

    def srv():
        conn = yield listener.accept()
        try:
            yield from conn.recv_exactly(100)
        except TcpError as e:
            errors.append(str(e))

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        conn.send(b"short")
        conn.close()

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    assert errors


def test_send_before_established_rejected():
    net = build_net()
    client, _server = stacks(net)
    conn_holder = {}

    def cli():
        ev = client.connect(net.host("h2").ip, 80)
        # grab the connection object before the handshake completes
        for key, conn in client._conns.items():
            conn_holder["conn"] = conn
        yield net.sim.timeout(0)

    net.sim.process(cli())
    net.run(until=0.001)
    with pytest.raises(TcpError):
        conn_holder["conn"].send(b"too early")


def test_transfer_survives_packet_loss():
    """Go-back-N recovers from queue drops caused by a tiny link buffer."""
    from repro.net import NetParams

    net = Network(
        linear(1, hosts_per_switch=2), params=NetParams(link_queue_bytes=3 * MSS)
    )
    ctrl = Controller(net)
    ctrl.register(L3ShortestPathApp())
    drops = net.attach_trace({"link.drop"})
    client, server = TcpStack(net.host("h1")), TcpStack(net.host("h2"))
    listener = server.listen(80)
    payload = b"z" * (40 * MSS)
    got = {}

    def srv():
        conn = yield listener.accept()
        got["data"] = yield from conn.recv_exactly(len(payload))

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        conn.send(payload)

    net.sim.process(srv())
    net.sim.process(cli())
    net.run(until=30.0)
    assert got.get("data") == payload
    # Confirm the adverse condition actually occurred.
    assert len(drops) > 0


def test_connect_latency_one_rtt_vs_reply():
    """On a pre-wired path, connect() completes in ~1 RTT."""
    net = build_net(fat_tree(4))
    app = [a for a in net.switches()][0]  # silence lints; wiring below
    # Pre-wire to avoid controller setup noise.
    ctrl = Controller(net)
    l3 = ctrl.register(L3ShortestPathApp())
    l3.wire_pair("h1", "h16")
    net.run()
    client, server = TcpStack(net.host("h1")), TcpStack(net.host("h16"))
    listener = server.listen(80)
    t = {}

    def srv():
        yield listener.accept()

    def cli():
        t0 = net.sim.now
        yield client.connect(server.host.ip, 80)
        t["connect"] = net.sim.now - t0

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    # 1 RTT over 6 hops plus stacks: order of 100-200 us in this model.
    assert 50e-6 < t["connect"] < 1e-3


def test_double_listen_rejected():
    net = build_net()
    _, server = stacks(net)
    server.listen(80)
    with pytest.raises(TcpError):
        server.listen(80)


def test_listener_close_unbinds():
    net = build_net()
    _, server = stacks(net)
    listener = server.listen(80)
    listener.close()
    server.listen(80)  # no error after close


def _checked_sender(conn, payload):
    """Assert every data segment ``conn`` sends carries its stream bytes."""
    transmit = conn._transmit_segment

    def checked(seg):
        if seg.kind == "data":
            assert seg.data == payload[seg.seq : seg.seq + len(seg.data)]
        transmit(seg)

    conn._transmit_segment = checked


def test_acknowledged_bytes_leave_the_send_buffer():
    net = build_net()
    client, server = stacks(net)
    listener = server.listen(80)
    payload = random.Random(7).randbytes(500_000)
    got, sender = {}, {}

    def srv():
        conn = yield listener.accept()
        got["data"] = yield from conn.recv_exactly(len(payload))

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        sender["conn"] = conn
        _checked_sender(conn, payload)
        conn.send(payload)
        sender["held"] = []
        while conn._snd_base < len(payload):
            # everything below the cumulative ACK is gone
            assert conn._buf_base == conn._snd_base
            sender["held"].append(len(conn._send_buf))
            yield net.sim.timeout(0.0005)

    net.sim.process(srv())
    net.sim.process(cli())
    net.run()
    conn = sender["conn"]
    assert got["data"] == payload
    assert len(conn._send_buf) == 0 and conn._buf_base == len(payload)
    # the buffer shrank while the window slid, not only at the end
    assert min(sender["held"]) < len(payload) // 4


@pytest.mark.parametrize("congestion_control", [False, True])
def test_transfer_through_a_loss_window_is_byte_exact(congestion_control):
    """Go-back-N rewinds (and, with CC, late ACKs past the rewound
    ``_snd_next``) resend bytes the buffer must still hold."""
    from repro.net import NetParams

    net = Network(
        linear(1, hosts_per_switch=2), params=NetParams(link_queue_bytes=3 * MSS)
    )
    Controller(net).register(L3ShortestPathApp())
    drops = net.attach_trace({"link.drop"})
    client = TcpStack(net.host("h1"), congestion_control=congestion_control)
    server = TcpStack(net.host("h2"), congestion_control=congestion_control)
    listener = server.listen(80)
    payload = random.Random(11).randbytes(120 * MSS + 17)
    got, sender = {}, {}

    def srv():
        conn = yield listener.accept()
        got["data"] = yield from conn.recv_exactly(len(payload))

    def cli():
        conn = yield client.connect(server.host.ip, 80)
        sender["conn"] = conn
        _checked_sender(conn, payload)
        conn.send(payload[:50_000])
        yield net.sim.timeout(0.001)
        conn.send(payload[50_000:])

    net.sim.process(srv())
    net.sim.process(cli())
    net.run(until=60.0)
    assert got.get("data") == payload
    assert len(drops) > 0
    assert len(sender["conn"]._send_buf) == 0


def test_receiver_drops_buffered_segments_a_retransmission_passed():
    """A segment buffered ahead of ``_rcv_next`` whose retransmitted copy then
    arrives in order is dead: the drain only ever looks ``_rcv_next`` up.
    Nothing may stay buffered below ``_rcv_next`` for the connection's life.
    """
    from repro.net import FlowEntry, Match, NetParams, Output

    net = Network(
        linear(2, hosts_per_switch=1), params=NetParams(link_queue_bytes=60_000)
    )
    h1, h2 = net.host("h1"), net.host("h2")
    for sw, (to_h1, to_h2) in {"s1": ("h1", "s2"), "s2": ("s1", "h2")}.items():
        table = net.switch(sw).table
        table.install(FlowEntry(Match(ip_dst=h1.ip), [Output(net.port(sw, to_h1))]))
        table.install(FlowEntry(Match(ip_dst=h2.ip), [Output(net.port(sw, to_h2))]))
    drops = net.attach_trace({"link.drop"})
    client, server = TcpStack(h1), TcpStack(h2)
    listener = server.listen(80)
    payload = random.Random(3).randbytes(1_000_000)
    got, receiver = {}, {}

    def srv():
        conn = yield listener.accept()
        receiver["conn"] = conn
        got["data"] = yield from conn.recv_exactly(len(payload))

    def cli():
        conn = yield client.connect(h2.ip, 80)
        for i in range(0, len(payload), 3000):
            conn.send(payload[i : i + 3000])

    net.sim.process(srv())
    net.sim.process(cli())
    net.run(until=60.0)
    assert got.get("data") == payload
    assert len(drops) > 0  # the go-back-N retransmissions happened
    conn = receiver["conn"]
    assert [seq for seq in conn._rcv_ooo if seq < conn._rcv_next] == []
    assert conn._rcv_ooo == {}
