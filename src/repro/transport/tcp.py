"""Simulated TCP: handshake, segmentation, sliding window, ACK clocking.

Implements enough of TCP to reproduce the paper's latency and route-setup
measurements faithfully:

* 3-way handshake (``connect`` completes after SYN/SYN-ACK, one RTT),
* byte-stream ``send``/``recv`` with MSS segmentation, a fixed sliding
  window, cumulative ACKs, out-of-order reassembly,
* go-back-N retransmission on a coarse timer (drops are rare in the
  simulated fabric but possible under congestion),
* FIN/EOF semantics.

Congestion control (slow start, AIMD congestion avoidance, fast retransmit
on triple duplicate ACKs) is available per connection via
``congestion_control=True`` but is **off by default**: the paper's
evaluation numbers are calibrated against the fixed-window model, whose
steady state matches the max-min allocation computed by
:class:`repro.net.fluid.FluidSolver` (cross-checked in
``benchmarks/bench_fluid_validation.py``, and again at the fidelity
boundary of the hybrid engine — ``docs/scale.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.host import Host
from ..net.packet import Packet
from ..sim import Event, Store

__all__ = ["TcpSegment", "TcpConnection", "TcpListener", "TcpStack", "MSS"]

MSS = 1460
DEFAULT_WINDOW = 64 * MSS
RTO_S = 0.2

@dataclass
class TcpSegment:
    """The TCP payload carried inside a :class:`Packet`."""

    kind: str  # "syn" | "syn_ack" | "ack" | "data" | "fin"
    seq: int = 0
    ack: int = 0
    data: bytes = b""

    def __post_init__(self) -> None:
        if self.kind not in ("syn", "syn_ack", "ack", "data", "fin"):
            raise ValueError(f"bad segment kind {self.kind!r}")


class TcpError(Exception):
    """Transport-level failure (bad state, early EOF, port in use)."""
    pass


class TcpConnection:
    """One endpoint of an established (or establishing) connection."""

    def __init__(
        self,
        stack: "TcpStack",
        local_port: int,
        remote_ip,
        remote_port: int,
        congestion_control: bool = False,
    ):
        self.stack = stack
        self.sim = stack.sim
        self.host = stack.host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.conn_id = next(self.sim.ids("tcp.conn"))
        self.state = "closed"
        # congestion control (optional)
        self.cc_enabled = congestion_control
        self.cwnd = 10 * MSS  # RFC 6928 initial window
        self.ssthresh = DEFAULT_WINDOW
        self._dup_acks = 0
        self._last_ack_seen = 0
        # sender side: stream offsets stay absolute; the buffer holds the
        # bytes from _buf_base on, released as the cumulative ACK passes them
        self._send_buf = bytearray()
        self._buf_base = 0  # stream offset of _send_buf[0]
        self._snd_base = 0  # first unacked byte offset
        self._snd_next = 0  # next byte offset to transmit
        self._snd_fin_queued = False
        self._fin_seq: Optional[int] = None
        self.window_bytes = DEFAULT_WINDOW
        self._timer_armed = False
        self._last_progress = 0.0
        # receiver side
        self._rcv_next = 0
        self._rcv_ooo: dict[int, bytes] = {}
        self._rcv_stream = bytearray()
        self._rcv_eof = False
        self._rcv_waiters: list[tuple[int, Event]] = []
        # lifecycle
        self._connect_event: Optional[Event] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- public API -----------------------------------------------------
    def send(self, data: bytes) -> None:
        """Queue bytes for transmission (returns immediately)."""
        if self.state not in ("established",):
            raise TcpError(f"send on connection in state {self.state}")
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("TCP carries bytes")
        self._send_buf.extend(data)
        self._pump()

    def recv(self, n: int) -> Event:
        """Event firing with up to ``n`` bytes once data (or EOF) arrives.

        Fires with ``b""`` on a clean EOF with no pending data.
        """
        if n <= 0:
            raise ValueError("recv size must be positive")
        ev = self.sim.event()
        self._rcv_waiters.append((n, ev))
        self._serve_receivers()
        return ev

    def recv_exactly(self, n: int):
        """Process helper: yields until exactly ``n`` bytes are read.

        Usage: ``data = yield from conn.recv_exactly(100)``.  Raises
        :class:`TcpError` if EOF arrives first.
        """
        chunks = []
        remaining = n
        while remaining > 0:
            chunk = yield self.recv(remaining)
            if not chunk:
                raise TcpError("connection closed before full read")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Flush pending data then send FIN."""
        if self.state in ("closed", "closing"):
            return
        self._snd_fin_queued = True
        self.state = "closing"
        self._pump()

    @property
    def established(self) -> bool:
        """True once the handshake completed."""
        return self.state == "established"

    # -- sending machinery ----------------------------------------------
    @property
    def effective_window(self) -> int:
        """Receiver window, further clamped by cwnd when CC is on."""
        if self.cc_enabled:
            return max(MSS, min(self.window_bytes, int(self.cwnd)))
        return self.window_bytes

    def _pump(self) -> None:
        """Transmit whatever the window allows."""
        window = self.effective_window
        base = self._buf_base
        stream_end = base + len(self._send_buf)
        while (
            self._snd_next < stream_end
            and self._snd_next - self._snd_base < window
        ):
            end = min(self._snd_next + MSS, stream_end, self._snd_base + window)
            with memoryview(self._send_buf) as view:
                chunk = bytes(view[self._snd_next - base : end - base])
            self._transmit_segment(
                TcpSegment("data", seq=self._snd_next, ack=self._rcv_next, data=chunk)
            )
            self._snd_next = end
        if (
            self._snd_fin_queued
            and self._fin_seq is None
            and self._snd_next == stream_end
        ):
            self._fin_seq = self._snd_next
            self._transmit_segment(TcpSegment("fin", seq=self._fin_seq, ack=self._rcv_next))
        self._arm_timer()

    def _transmit_segment(self, seg: TcpSegment) -> None:
        pkt = self.host.make_packet(
            self.remote_ip,
            proto="tcp",
            sport=self.local_port,
            dport=self.remote_port,
            payload=seg,
            payload_size=len(seg.data),
        )
        self.bytes_sent += len(seg.data)
        self.host.send_packet(pkt)

    def _arm_timer(self) -> None:
        if self._timer_armed:
            return
        if self._snd_base >= self._snd_next and self._fin_seq is None:
            return  # nothing outstanding
        self._last_progress = self.sim.now
        self._timer_armed = True
        self.sim.call_later(RTO_S, self._on_timer)

    def _on_timer(self) -> None:
        self._timer_armed = False
        outstanding = self._snd_base < self._snd_next or (
            self._fin_seq is not None and self.state == "closing"
        )
        if not outstanding:
            return
        if self.sim.now - self._last_progress >= RTO_S * 0.5:
            # Go-back-N: rewind and resend from the base.
            if self.cc_enabled:
                self.ssthresh = max(
                    (self._snd_next - self._snd_base) // 2, 2 * MSS
                )
                self.cwnd = MSS
                self._dup_acks = 0
            self._snd_next = self._snd_base
            if self._fin_seq is not None:
                self._fin_seq = None
            self._pump()
        else:
            self._arm_timer()

    # -- receiving machinery ------------------------------------------------
    def handle_segment(self, seg: TcpSegment) -> None:
        """Demultiplexed entry point for an arriving segment."""
        if seg.kind == "data":
            self._on_data(seg)
        elif seg.kind == "ack":
            self._on_ack(seg)
        elif seg.kind == "fin":
            self._on_fin(seg)
        elif seg.kind == "syn_ack":
            self._on_syn_ack()
        # bare "syn" is handled by the stack/listener, not the connection

    def _on_data(self, seg: TcpSegment) -> None:
        if seg.seq == self._rcv_next:
            self._rcv_stream.extend(seg.data)
            self._rcv_next += len(seg.data)
            self.bytes_received += len(seg.data)
            # Drain any now-contiguous out-of-order segments.
            while self._rcv_next in self._rcv_ooo:
                chunk = self._rcv_ooo.pop(self._rcv_next)
                self._rcv_stream.extend(chunk)
                self._rcv_next += len(chunk)
                self.bytes_received += len(chunk)
            if self._rcv_ooo:
                # A retransmission arrived in order and stepped past these
                # buffered copies; the drain looks up _rcv_next only, so
                # they could never be read again.
                rcv_next = self._rcv_next
                self._rcv_ooo = {
                    seq: data for seq, data in self._rcv_ooo.items() if seq >= rcv_next
                }
        elif seg.seq > self._rcv_next:
            self._rcv_ooo.setdefault(seg.seq, seg.data)
        # else: duplicate of already-received data; just re-ACK.
        self._transmit_segment(TcpSegment("ack", ack=self._rcv_next))
        self._serve_receivers()

    def _on_ack(self, seg: TcpSegment) -> None:
        if seg.ack > self._snd_base:
            if self.cc_enabled:
                if self.cwnd < self.ssthresh:
                    self.cwnd += MSS  # slow start: +MSS per new ACK
                else:
                    self.cwnd += MSS * MSS / self.cwnd  # AIMD increase
                self._dup_acks = 0
                self._last_ack_seen = seg.ack
            self._snd_base = seg.ack
            self._last_progress = self.sim.now
            # Release the acknowledged prefix, but not past _snd_next: after
            # a go-back-N rewind a late ACK can pass it, and the resend
            # resumes from there.
            keep_from = seg.ack if seg.ack < self._snd_next else self._snd_next
            if keep_from > self._buf_base:
                del self._send_buf[: keep_from - self._buf_base]
                self._buf_base = keep_from
            self._pump()
        elif self.cc_enabled and seg.ack == self._last_ack_seen and (
            self._snd_base < self._snd_next
        ):
            self._dup_acks += 1
            if self._dup_acks == 3:
                # Fast retransmit + multiplicative decrease.
                self.ssthresh = max(
                    (self._snd_next - self._snd_base) // 2, 2 * MSS
                )
                self.cwnd = self.ssthresh
                self._snd_next = self._snd_base
                if self._fin_seq is not None:
                    self._fin_seq = None
                self._dup_acks = 0
                self._pump()
        if (
            self._fin_seq is not None
            and seg.ack >= self._fin_seq
            and self.state == "closing"
        ):
            self.state = "closed"

    def _on_fin(self, seg: TcpSegment) -> None:
        self._rcv_eof = True
        self._transmit_segment(TcpSegment("ack", ack=seg.seq + 1))
        self._serve_receivers()

    def _on_syn_ack(self) -> None:
        if self.state == "syn_sent":
            self.state = "established"
            self._transmit_segment(TcpSegment("ack", ack=0))
            if self._connect_event is not None:
                self._connect_event.succeed(self)
                self._connect_event = None

    def _serve_receivers(self) -> None:
        while self._rcv_waiters:
            n, ev = self._rcv_waiters[0]
            if ev.triggered:
                self._rcv_waiters.pop(0)
                continue
            if self._rcv_stream:
                take = min(n, len(self._rcv_stream))
                chunk = bytes(self._rcv_stream[:take])
                del self._rcv_stream[:take]
                self._rcv_waiters.pop(0)
                ev.succeed(chunk)
            elif self._rcv_eof:
                self._rcv_waiters.pop(0)
                ev.succeed(b"")
            else:
                break


class TcpListener:
    """A passive socket: ``accept()`` yields established connections."""

    def __init__(self, stack: "TcpStack", port: int):
        self.stack = stack
        self.port = port
        self._backlog = Store(stack.sim)

    def accept(self) -> Event:
        """Event firing with the next established :class:`TcpConnection`."""
        return self._backlog.get()

    def _deliver(self, conn: TcpConnection) -> None:
        self._backlog.put(conn)

    def close(self) -> None:
        """Stop listening and release the port."""
        self.stack._close_listener(self.port)


class TcpStack:
    """Per-host TCP endpoint manager."""

    def __init__(self, host: Host, congestion_control: bool = False):
        self.host = host
        self.sim = host.sim
        self.congestion_control = congestion_control
        self._conns: dict[tuple, TcpConnection] = {}
        self._listeners: dict[int, TcpListener] = {}
        self._half_open: dict[tuple, TcpConnection] = {}

    # -- API -------------------------------------------------------------
    def listen(self, port: int) -> TcpListener:
        """Open a passive socket on ``port``."""
        if port in self._listeners:
            raise TcpError(f"port {port} already listening")
        listener = TcpListener(self, port)
        self._listeners[port] = listener
        self.host.bind("tcp", port, self._on_packet)
        return listener

    def connect(
        self, remote_ip, remote_port: int, local_port: Optional[int] = None
    ) -> Event:
        """Begin a 3-way handshake; the event fires with the connection.

        ``local_port`` pins the client-side port (MIC's user-end module binds
        the MC-assigned source port); default is a fresh ephemeral port.
        """
        if local_port is None:
            local_port = self.host.ephemeral_port()
        elif self.host.is_bound("tcp", local_port):
            raise TcpError(f"local port {local_port} already in use")
        conn = TcpConnection(
            self, local_port, remote_ip, remote_port,
            congestion_control=self.congestion_control,
        )
        conn.state = "syn_sent"
        conn._connect_event = self.sim.event()
        key = (local_port, remote_ip, remote_port)
        self._conns[key] = conn
        self.host.bind("tcp", local_port, self._on_packet)
        conn._transmit_segment(TcpSegment("syn"))
        return conn._connect_event

    def _close_listener(self, port: int) -> None:
        self._listeners.pop(port, None)
        self.host.unbind("tcp", port)

    # -- demux -------------------------------------------------------------
    def _on_packet(self, host: Host, packet: Packet) -> None:
        seg = packet.payload
        if not isinstance(seg, TcpSegment):
            return
        key = (packet.dport, packet.ip_src, packet.sport)
        conn = self._conns.get(key)
        if conn is not None:
            conn.handle_segment(seg)
            return
        if seg.kind == "syn" and packet.dport in self._listeners:
            self._on_syn(packet)
        # else: segment for an unknown connection — silently dropped (RST
        # behaviour is irrelevant to the reproduction).

    def _on_syn(self, packet: Packet) -> None:
        listener = self._listeners[packet.dport]
        conn = TcpConnection(
            self, packet.dport, packet.ip_src, packet.sport,
            congestion_control=self.congestion_control,
        )
        conn.state = "established"  # server considers it usable at SYN-ACK
        key = (packet.dport, packet.ip_src, packet.sport)
        self._conns[key] = conn
        conn._transmit_segment(TcpSegment("syn_ack"))
        listener._deliver(conn)
