"""Segment-level TCP unit tests (direct injection, no network in between)."""

import pytest

from repro.net import Network, linear
from repro.sdn import Controller, L3ShortestPathApp
from repro.transport import MSS, TcpStack, TcpSegment
from repro.transport.tcp import DEFAULT_WINDOW, RTO_S, TcpConnection


def make_conn():
    net = Network(linear(1, hosts_per_switch=2))
    Controller(net).register(L3ShortestPathApp())
    stack = TcpStack(net.host("h1"))
    conn = TcpConnection(stack, 1000, net.host("h2").ip, 80)
    conn.state = "established"
    return net, conn


class TestSegmentValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            TcpSegment("push")


class TestReceiver:
    def test_in_order_delivery(self):
        net, conn = make_conn()
        conn.handle_segment(TcpSegment("data", seq=0, data=b"abc"))
        conn.handle_segment(TcpSegment("data", seq=3, data=b"def"))
        got = {}

        def reader():
            got["data"] = yield from conn.recv_exactly(6)

        net.sim.process(reader())
        net.run(until=0.01)
        assert got["data"] == b"abcdef"

    def test_out_of_order_buffered_and_drained(self):
        net, conn = make_conn()
        conn.handle_segment(TcpSegment("data", seq=3, data=b"def"))
        assert conn._rcv_next == 0  # gap: nothing delivered yet
        conn.handle_segment(TcpSegment("data", seq=0, data=b"abc"))
        assert conn._rcv_next == 6  # gap filled, both drained
        assert bytes(conn._rcv_stream) == b"abcdef"

    def test_duplicate_data_ignored(self):
        net, conn = make_conn()
        conn.handle_segment(TcpSegment("data", seq=0, data=b"abc"))
        conn.handle_segment(TcpSegment("data", seq=0, data=b"abc"))
        assert bytes(conn._rcv_stream) == b"abc"
        assert conn.bytes_received == 3

    def test_every_data_segment_acked(self):
        net, conn = make_conn()
        conn.handle_segment(TcpSegment("data", seq=0, data=b"abc"))
        conn.handle_segment(TcpSegment("data", seq=9, data=b"zzz"))  # ooo
        # Two ACKs queued for transmission, both cumulative at 3.
        assert conn.host.packets_sent == 2

    def test_fin_sets_eof(self):
        net, conn = make_conn()
        conn.handle_segment(TcpSegment("fin", seq=0))
        assert conn._rcv_eof


class TestSenderWindow:
    def test_window_limits_outstanding_bytes(self):
        net, conn = make_conn()
        conn.send(b"x" * (DEFAULT_WINDOW + 10 * MSS))
        assert conn._snd_next - conn._snd_base <= DEFAULT_WINDOW

    def test_ack_advances_and_pumps(self):
        net, conn = make_conn()
        conn.send(b"x" * (DEFAULT_WINDOW + 10 * MSS))
        high_water = conn._snd_next
        conn.handle_segment(TcpSegment("ack", ack=DEFAULT_WINDOW))
        assert conn._snd_base == DEFAULT_WINDOW
        assert conn._snd_next > high_water  # window slid, more data sent

    def test_stale_ack_ignored(self):
        net, conn = make_conn()
        conn.send(b"x" * MSS)
        conn.handle_segment(TcpSegment("ack", ack=MSS))
        conn.handle_segment(TcpSegment("ack", ack=100))  # old duplicate
        assert conn._snd_base == MSS


class TestRetransmission:
    def test_go_back_n_rewinds_on_timeout(self):
        net, conn = make_conn()
        conn.send(b"x" * (3 * MSS))
        sent_before = conn.host.packets_sent
        assert conn._snd_next == 3 * MSS
        # No ACK ever arrives; let the retransmit timer fire.
        net.run(until=RTO_S * 2.5)
        assert conn.host.packets_sent > sent_before  # resent from base

    def test_no_retransmit_after_full_ack(self):
        net, conn = make_conn()
        conn.send(b"x" * MSS)
        conn.handle_segment(TcpSegment("ack", ack=MSS))
        sent = conn.host.packets_sent
        net.run(until=RTO_S * 3)
        assert conn.host.packets_sent == sent


class TestClose:
    def test_fin_after_data_flushed(self):
        net, conn = make_conn()
        conn.send(b"abc")
        conn.close()
        assert conn.state == "closing"
        assert conn._fin_seq == 3
        conn.handle_segment(TcpSegment("ack", ack=4))
        assert conn.state == "closed"

    def test_double_close_harmless(self):
        net, conn = make_conn()
        conn.close()
        conn.close()
        assert conn.state == "closing"


class TestSendBuffer:
    def test_cumulative_ack_releases_the_acked_prefix(self):
        net, conn = make_conn()
        conn.send(bytes(range(256)) * 20)
        conn.handle_segment(TcpSegment("ack", ack=3 * MSS))
        assert conn._buf_base == 3 * MSS
        assert bytes(conn._send_buf) == (bytes(range(256)) * 20)[3 * MSS :]

    def test_late_ack_past_a_rewound_snd_next_keeps_the_resend_bytes(self):
        net, conn = make_conn()
        conn.cc_enabled = True
        payload = bytes(range(256)) * 60
        conn.send(payload)
        assert conn._snd_next == 10 * MSS  # the initial window
        net.run(until=RTO_S * 1.5)  # timeout: rewind, cwnd = MSS
        assert (conn._snd_base, conn._snd_next) == (0, MSS)
        conn.handle_segment(TcpSegment("ack", ack=5 * MSS))  # a late ACK
        assert conn._snd_base == 5 * MSS > MSS
        # bytes from the rewound _snd_next on are still buffered
        assert conn._buf_base == MSS
        assert bytes(conn._send_buf) == payload[MSS:]
