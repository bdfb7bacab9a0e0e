"""Unit tests for message framing over the TCP byte stream."""

import gc
import weakref

import pytest

from repro.net import Network, linear
from repro.sdn import Controller, L3ShortestPathApp
from repro.transport import TcpStack
from repro.transport.framing import MessageChannel


def build():
    net = Network(linear(1, hosts_per_switch=2))
    ctrl = Controller(net)
    ctrl.register(L3ShortestPathApp())
    return net, TcpStack(net.host("h1")), TcpStack(net.host("h2"))


def connect(net, client, server, port=5000):
    listener = server.listen(port)
    chans = {}

    def srv():
        conn = yield listener.accept()
        chans["server"] = MessageChannel(conn)

    def cli():
        conn = yield client.connect(server.host.ip, port)
        chans["client"] = MessageChannel(conn)

    net.sim.process(srv())
    net.sim.process(cli())
    net.run(until=1.0)
    return chans["client"], chans["server"]


def test_object_roundtrip():
    net, client, server = build()
    tx, rx = connect(net, client, server)
    got = {}

    def receiver():
        obj, size = yield from rx.recv()
        got["obj"], got["size"] = obj, size

    net.sim.process(receiver())
    tx.send({"kind": "cell", "payload": [1, 2, 3]}, wire_size=512)
    net.run(until=2.0)
    assert got["obj"] == {"kind": "cell", "payload": [1, 2, 3]}
    assert got["size"] == 512


def test_messages_arrive_in_order():
    net, client, server = build()
    tx, rx = connect(net, client, server)
    got = []

    def receiver():
        for _ in range(5):
            obj, _ = yield from rx.recv()
            got.append(obj)

    net.sim.process(receiver())
    for i in range(5):
        tx.send(("msg", i), wire_size=100)
    net.run(until=2.0)
    assert got == [("msg", i) for i in range(5)]


def test_wire_size_affects_timing():
    """A bigger frame takes longer to arrive — the framing is not a
    teleport; content rides the actual byte stream."""
    net, client, server = build()
    tx, rx = connect(net, client, server)
    times = []

    def receiver():
        for _ in range(2):
            yield from rx.recv()
            times.append(net.sim.now)

    net.sim.process(receiver())
    t0 = net.sim.now
    tx.send("small", wire_size=10)
    tx.send("big", wire_size=100_000)
    net.run(until=5.0)
    assert len(times) == 2
    small_latency = times[0] - t0
    big_gap = times[1] - times[0]
    assert big_gap > small_latency  # 100 kB serializes much longer than 10 B


def test_zero_size_frame():
    net, client, server = build()
    tx, rx = connect(net, client, server)
    got = {}

    def receiver():
        obj, size = yield from rx.recv()
        got["obj"], got["size"] = obj, size

    net.sim.process(receiver())
    tx.send("empty-frame", wire_size=0)
    net.run(until=2.0)
    assert got == {"obj": "empty-frame", "size": 0}


def test_negative_size_rejected():
    net, client, server = build()
    tx, rx = connect(net, client, server)
    with pytest.raises(ValueError):
        tx.send("x", wire_size=-1)


class _Message:
    """A payload object a weak reference can watch."""


def test_a_frame_never_claimed_dies_with_its_deployment():
    """A frame registered by ``send`` and still in flight when the run stops
    belongs to that deployment: dropping the deployment frees the message
    (a process-wide registry pinned it for the life of the process)."""
    net, client, server = build()
    tx, rx = connect(net, client, server)
    message = _Message()
    tx.send(message, wire_size=200_000)
    net.run(until=net.sim.now + 1e-4)  # stopped with bytes in flight
    assert list(net.sim.frames_in_flight.values()) == [message]
    watch = weakref.ref(message)
    del message, net, client, server, tx, rx
    gc.collect()
    assert watch() is None


def test_two_deployments_frames_do_not_meet():
    """Both deployments number their first frame 1; each receiver claims its
    own sender's object."""
    got = {}
    runs = []
    for label in ("a", "b"):
        net, client, server = build()
        tx, rx = connect(net, client, server)

        def receiver(rx=rx, label=label):
            got[label], _size = yield from rx.recv()

        net.sim.process(receiver())
        tx.send(("from", label), wire_size=64)
        runs.append(net)
    for net in reversed(runs):
        net.run(until=2.0)
    assert got == {"a": ("from", "a"), "b": ("from", "b")}
    assert all(not net.sim.frames_in_flight for net in runs)
