"""The read contract shared by a TCP connection and a MIC stream.

``recv_exactly(n)`` parks one read and resumes its process once, with all
``n`` bytes, or raises the stream's EOF error and leaves what did arrive
readable; reads are served in the order they were made, whichever of
``recv`` / ``recv_exactly`` made them.
"""

import random

import pytest

from repro.core import deploy_mic
from repro.core.client import MicError, MicStream
from repro.net import Network, fat_tree, linear
from repro.sdn import Controller, L3ShortestPathApp
from repro.sim import Simulator
from repro.transport import MSS, TcpError, TcpSegment, TcpStack
from repro.transport.tcp import TcpConnection

KB64 = 64 * 1024


class TcpSide:
    """A connection fed segment by segment, with no network in between."""

    error = TcpError

    def __init__(self):
        net = Network(linear(1, hosts_per_switch=2))
        Controller(net).register(L3ShortestPathApp())
        self.sim = net.sim
        self.stream = TcpConnection(TcpStack(net.host("h1")), 1000,
                                    net.host("h2").ip, 80)
        self.stream.state = "established"
        self._offset = 0

    def push(self, data: bytes) -> None:
        self.stream.handle_segment(TcpSegment("data", seq=self._offset, data=data))
        self._offset += len(data)

    def end(self) -> None:
        self.stream.handle_segment(TcpSegment("fin", seq=self._offset))


class MicSide:
    """A stream fed chunk by chunk, as its m-flow pumps would."""

    error = MicError

    def __init__(self):
        self.sim = Simulator()
        self.stream = MicStream(self.sim, token=7, rng=random.Random(0))
        self._seq = 0

    def push(self, data: bytes) -> None:
        self.stream.feed(self._seq, data)
        self._seq += 1

    def end(self) -> None:
        self.stream.feed_eof()


@pytest.fixture(params=[TcpSide, MicSide], ids=["tcp", "mic"])
def side(request):
    return request.param()


def counting_resumes(gen, resumes: list):
    """Run ``gen`` as a process body, noting every time the kernel resumes it."""
    value = None
    while True:
        try:
            target = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield target
        resumes.append(len(value))


def test_a_64_kb_read_resumes_its_reader_once(side):
    data = bytes(range(256)) * (KB64 // 256)
    pieces = [data[i:i + MSS] for i in range(0, KB64, MSS)]
    assert len(pieces) == 45
    for i, piece in enumerate(pieces):
        side.sim.call_later(1e-6 * i, side.push, piece)
    resumes, got = [], {}

    def reader():
        got["data"] = yield from counting_resumes(
            side.stream.recv_exactly(KB64), resumes)

    side.sim.process(reader())
    side.sim.run()
    assert got["data"] == data
    assert resumes == [KB64]


@pytest.mark.parametrize("path", ["tcp", "mic"])
def test_a_64_kb_read_across_the_fabric_resumes_once(path):
    data = bytes(range(256)) * (KB64 // 256)
    resumes, got = [], {}
    if path == "tcp":
        net = Network(linear(2, hosts_per_switch=1))
        Controller(net).register(L3ShortestPathApp())
        client, server = TcpStack(net.host("h1")), TcpStack(net.host("h2"))
        listener = server.listen(80)

        def sender():
            conn = yield client.connect(server.host.ip, 80)
            conn.send(data)

        def receiver():
            conn = yield listener.accept()
            got["data"] = yield from counting_resumes(conn.recv_exactly(KB64), resumes)
    else:
        dep = deploy_mic(fat_tree(4), seed=0)
        net = dep.net
        mic_server = dep.server("h16", 7000)

        def sender():
            stream = yield from dep.endpoint("h1").connect("h16", service_port=7000)
            stream.send(data)

        def receiver():
            stream = yield mic_server.accept()
            got["data"] = yield from counting_resumes(
                stream.recv_exactly(KB64), resumes)

    net.sim.process(sender())
    net.sim.process(receiver())
    net.run(until=5.0)
    assert got["data"] == data
    assert resumes == [KB64]


def test_eof_mid_read_raises_and_keeps_the_partial_bytes(side):
    side.push(b"x" * 100)
    side.end()
    got = {}

    def reader():
        try:
            yield from side.stream.recv_exactly(150)
        except side.error as exc:
            got["error"] = str(exc)
        got["rest"] = yield side.stream.recv(1000)
        got["eof"] = yield side.stream.recv(1000)

    side.sim.process(reader())
    side.sim.run()
    assert "closed before full read" in got["error"]
    assert got["rest"] == b"x" * 100
    assert got["eof"] == b""


def test_an_exact_read_queued_first_is_served_first(side):
    order, got = [], {}

    def exact():
        got["exact"] = yield from side.stream.recv_exactly(10)
        order.append("exact")

    def partial():
        yield side.sim.timeout(1e-6)  # queued after the exact read
        got["partial"] = yield side.stream.recv(4)
        order.append("partial")

    side.sim.process(exact())
    side.sim.process(partial())
    side.sim.call_later(2e-6, side.push, b"012345")
    side.sim.call_later(3e-6, side.push, b"6789abcd")
    side.sim.run()
    assert got == {"exact": b"0123456789", "partial": b"abcd"}
    assert order == ["exact", "partial"]


def test_an_empty_exact_read_returns_without_waiting(side):
    with pytest.raises(StopIteration) as stop:
        next(side.stream.recv_exactly(0))
    assert stop.value.value == b""
