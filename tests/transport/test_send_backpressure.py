"""A bulk writer parks at the send-buffer mark and the wire does not notice.

``Duplex.send`` makes a TCP or MIC writer wait (``drain``) once more than
two windows are unacked or unsent.  The oracle is the one-shot writer, which
queues the whole payload at time zero: the same write pieces, back to back
in one step, never parking.  (The pieces must match: a first write shorter
than a window ends the first flight on a short segment, and a MIC stream's
slicer cuts each write on its own.)  Against it every channel's packet log,
the delivered bytes and their times must be equal, through a lossy or
flapping link, with congestion control on or off, and over m-flows whose
paths differ in length and speed.
"""

import random

import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro.core.client import MicError, MicStream
from repro.core.multiflow import CHUNK_HEADER, MAX_CHUNK
from repro.net import Network
from repro.net.topology import Topology
from repro.sdn import Controller, L3ShortestPathApp
from repro.transport import TcpError, TcpSegment, TcpStack
from repro.transport.tcp import DEFAULT_WINDOW, SNDBUF_WINDOWS
from repro.workloads.duplex import as_duplex

MARK = SNDBUF_WINDOWS * DEFAULT_WINDOW
LINKS = [("h1", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s4")]
#: the m-flows' far ends: the h1 → h4 path is the longest and crosses the
#: slow s3–s4 link, so with several m-flows one runs well behind the others
FLOW_DESTS = {0: ["h4"], 1: ["h4"], 2: ["h2", "h4"], 3: ["h2", "h3", "h4"]}


def chain() -> Topology:
    """h1..h4 on a chain of four switches; s3–s4 is slow and long."""
    topo = Topology("chain-4")
    for i in range(1, 5):
        topo.add_switch(f"s{i}")
        topo.add_host(f"h{i}")
        topo.add_link(f"h{i}", f"s{i}")
        if i > 1:
            extra = dict(bandwidth_bps=2e8, delay_s=40e-6) if i == 4 else {}
            topo.add_link(f"s{i - 1}", f"s{i}", **extra)
    return topo


def record_channels(net, log: dict, lossy=None, loss=0.0, seed=0):
    """Log ``(time, size, kind, sent)`` for every packet offered to every
    channel; once the returned flag is set, the ``lossy`` link drops each
    packet with probability ``loss``."""
    drop = random.Random(seed)
    armed = [False]
    for link in net.links:
        for ch in (link.forward, link.reverse):
            rows = log.setdefault(ch.name, [])
            lose = lossy is not None and set(link.endpoints) == set(lossy)

            def send(packet, _inner=ch.send, _rows=rows, _lose=lose):
                seg = packet.payload
                kind = seg.kind if isinstance(seg, TcpSegment) else type(seg).__name__
                if _lose and armed[0] and drop.random() < loss:
                    sent = False
                else:
                    sent = _inner(packet)
                _rows.append((net.sim.now, packet.size, kind, sent))
                return sent

            ch.send = send
    return armed


def framed(nbytes: int) -> int:
    """Bytes a one-flow MIC stream puts in its m-flow for an ``nbytes`` write."""
    return nbytes + -(-nbytes // MAX_CHUNK) * CHUNK_HEADER.size


def transfer(payload: bytes, write: int, *, n_flows: int = 0, parked: bool,
             cc: bool = False, fault=None, close: bool = True):
    """Run one transfer h1 → the far end(s); ``n_flows=0`` is plain TCP.

    ``fault`` is ``None``, ``("lossy", link, p)`` or ``("flap", link, t0,
    outage_s)``, ``t0`` counted from the first write.  Returns the channel logs, the delivered ``(time, bytes)``
    pieces, the largest ``_send_buf`` any write left behind, the times each
    write returned and the sender's connections.
    """
    net = Network(chain())
    Controller(net).register(L3ShortestPathApp())
    sim = net.sim
    log: dict = {}
    if fault is not None and fault[0] == "lossy":
        lossy = record_channels(net, log, lossy=fault[1], loss=fault[2])
    else:
        lossy = record_channels(net, log)
    client = TcpStack(net.host("h1"), congestion_control=cc)
    dests = FLOW_DESTS[n_flows]
    servers = [TcpStack(net.host(d), congestion_control=cc) for d in dests]
    listeners = [s.listen(80) for s in servers]
    delivered: list = []
    peak = [0]
    returned: list = []
    state: dict = {}

    def note_peak(conn):
        inner = conn.send

        def send(data):
            inner(data)
            peak[0] = max(peak[0], len(conn._send_buf))

        conn.send = send

    def reader():
        if n_flows:
            rx = MicStream(sim, token=7, rng=random.Random(1))
            for listener in listeners:
                rx.add_conn((yield listener.accept()))
        else:
            rx = yield listeners[0].accept()
        got = 0
        while got < len(payload):
            data = yield rx.recv(1 << 20)
            if not data:
                break
            delivered.append((sim.now, data))
            got += len(data)

    def writer():
        conns = []
        for s in servers:
            conn = yield client.connect(s.host.ip, 80)
            note_peak(conn)
            conns.append(conn)
        state["conns"] = conns
        lossy[0] = True  # after the handshakes: a lost SYN is never resent
        if fault is not None and fault[0] == "flap":
            _, (a, b), t0, outage = fault
            sim.call_later(t0, net.set_link_state, a, b, False)
            sim.call_later(t0 + outage, net.set_link_state, a, b, True)
        if n_flows:
            tx = MicStream(sim, token=7, rng=random.Random(2))
            for conn in conns:
                tx.add_conn(conn, pump=False)
        else:
            tx = conns[0]
        pieces = [payload[i:i + write] for i in range(0, len(payload), write)]
        if not parked:
            for piece in pieces:
                tx.send(piece)
        else:
            duplex = as_duplex(tx)
            for piece in pieces:
                yield from duplex.send(piece)
                returned.append(sim.now)
        if close:
            tx.close()

    sim.process(reader())
    sim.process(writer())
    net.run(until=120.0)
    return log, delivered, peak[0], returned, state["conns"]


def fin_times(log: dict) -> list:
    """When each FIN left the writer's host."""
    return [row[0] for row in log["h1[0]->s1[1]"] if row[2] == "fin"]


faults = st.one_of(
    st.tuples(st.just("lossy"), st.sampled_from(LINKS),
              st.sampled_from([0.002, 0.01, 0.03])),
    st.tuples(st.just("flap"), st.sampled_from(LINKS),
              st.floats(0.0005, 0.02), st.floats(0.001, 0.05)),
)


@st.composite
def scenarios(draw):
    write = draw(st.one_of(st.integers(1, 2048), st.integers(2048, 128 * 1024)))
    # at most ~4k writes, so that a one-byte writer stays quick; most
    # payloads are big enough to park the writer
    most = min(2_000_000, write * 4096)
    size = draw(st.one_of(st.integers(1, most), st.integers(most // 2, most)))
    return dict(size=size, write=write, n_flows=draw(st.sampled_from([0, 1, 2, 3])),
                cc=draw(st.booleans()), fault=draw(faults))


@settings(max_examples=30, deadline=None)
@given(scenarios())
@example(dict(size=2_000_000, write=64 * 1024, n_flows=3, cc=False,
              fault=("flap", ("s1", "s2"), 0.004, 0.05)))
@example(dict(size=1_000_000, write=65_536, n_flows=0, cc=True,
              fault=("lossy", ("s3", "s4"), 0.01)))
@example(dict(size=600_000, write=1000, n_flows=1, cc=False,
              fault=("lossy", ("h1", "s1"), 0.002)))
def test_a_parked_writer_puts_the_oracles_packets_on_every_wire(case):
    payload = random.Random(case["size"]).randbytes(case["size"])
    kw = dict(n_flows=case["n_flows"], cc=case["cc"], fault=case["fault"])
    want_log, want_rx, _, _, _ = transfer(payload, case["write"], parked=False, **kw)
    log, rx, peak, returned, _ = transfer(payload, case["write"], parked=True, **kw)
    event(f"parked: {returned[-1] > returned[0]}")
    assert log == want_log
    assert rx == want_rx
    assert b"".join(data for _, data in rx) == payload
    if case["n_flows"] <= 1:
        write = min(case["write"], case["size"])
        assert peak <= MARK + (framed(write) if case["n_flows"] else write)


@pytest.mark.parametrize("parked", [False, True])
def test_a_fin_past_a_lost_segment_does_not_end_the_stream(parked):
    """Under loss the FIN can overtake a lost data segment.  The receiver
    takes a FIN only at the next byte it expects: one past a gap is answered
    with a re-ACK of that byte, and go-back-N resends the data, FIN last.
    (Taken at once, this FIN ended the stream 400 B short.)"""
    payload = random.Random(1_000_000).randbytes(1_000_000)
    log, rx, _, _, _ = transfer(payload, 65_536, parked=parked, cc=True,
                                fault=("lossy", ("s3", "s4"), 0.01))
    assert b"".join(data for _, data in rx) == payload
    assert len(fin_times(log)) > 1  # the first FIN went past the gap


def test_the_bound_is_the_mark_plus_one_write_not_the_payload():
    payload = bytes(1_000_000)
    _, _, oracle_peak, _, _ = transfer(payload, 65_536, parked=False)
    _, rx, peak, _, _ = transfer(payload, 65_536, parked=True)
    assert oracle_peak == 1_000_000
    assert MARK < peak <= MARK + 65_536
    assert sum(len(d) for _, d in rx) == len(payload)


def test_a_writer_parked_across_an_outage_resumes_after_go_back_n():
    payload = random.Random(5).randbytes(1_000_000)
    outage = ("flap", ("s2", "s3"), 0.003, 0.05)
    log, rx, peak, returned, _ = transfer(payload, 65_536, parked=True, fault=outage)
    want_log, want_rx, _, _, _ = transfer(payload, 65_536, parked=False, fault=outage)
    # the writer was parked when the link went down, and wrote again only
    # once the retransmission timer had resent from the base after it came up
    since = [t - returned[0] for t in returned]
    assert any(t < 0.003 for t in since)
    assert any(t > 0.053 for t in since)
    assert not any(0.0035 <= t < 0.053 for t in since)
    dropped = sum(1 for rows in log.values() for row in rows if not row[3])
    assert dropped > 0
    assert b"".join(d for _, d in rx) == payload
    assert (log, rx) == (want_log, want_rx)
    assert peak <= MARK + 65_536


@pytest.mark.parametrize("n_flows", [0, 1, 3])
def test_close_after_a_parked_write_sends_fin_when_the_oracle_does(n_flows):
    payload = bytes(700_000)
    log, _, _, returned, _ = transfer(payload, 65_536, n_flows=n_flows, parked=True)
    want_log, _, _, _, _ = transfer(payload, 65_536, n_flows=n_flows, parked=False)
    fins = fin_times(log)
    assert len(fins) == max(n_flows, 1)
    assert fins == fin_times(want_log)
    assert log == want_log
    assert returned[-1] > returned[0]  # the writer did park


def test_drain_on_a_connection_that_is_not_established_raises():
    net = Network(chain())
    stack = TcpStack(net.host("h3"))
    stack.connect(net.host("h2").ip, 80)
    (half_open,) = stack._conns.values()
    assert half_open.state == "syn_sent"
    with pytest.raises(TcpError, match="syn_sent"):
        next(half_open.drain())
    with pytest.raises(TcpError, match="syn_sent"):
        half_open.send(b"x")
    half_open.state = "closing"
    with pytest.raises(TcpError, match="closing"):
        next(half_open.drain())
    stream = MicStream(net.sim, token=1, rng=random.Random(0))
    with pytest.raises(MicError):
        next(stream.drain())
    stream.add_conn(half_open, pump=False)
    with pytest.raises(TcpError):
        next(stream.drain())


def test_a_drain_below_the_mark_does_not_park():
    _, _, peak, returned, conns = transfer(bytes(MARK), 4096, parked=True)
    assert peak == MARK
    assert all(t == returned[0] for t in returned)
    assert conns[0]._drain_event is None
