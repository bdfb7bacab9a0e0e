"""MIC user-end module: socket-like anonymous communication API (Sec VI).

The paper ships a user-space library with "socket like programming APIs".
This module provides it:

* :class:`MicEndpoint` — the initiator side.  ``connect()`` sends the
  encrypted channel request to the MC, receives the grant, opens one TCP
  connection per m-flow from the MC-assigned source port to each entry
  address, and returns a :class:`MicStream`.
* :class:`MicServer` — the responder side.  Accepts the per-m-flow TCP
  connections, groups them by channel token, and exposes each channel as a
  :class:`MicStream`.
* :class:`MicStream` — a bidirectional byte stream that slices outgoing data
  across the channel's m-flows (the multiple-m-flows mechanism) and
  reassembles incoming chunks.

No kernel or protocol-stack changes are required — everything here is plain
sockets plus header bytes, exactly the paper's deployability goal.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from ..crypto import DEFAULT_COSTS, CryptoCostModel, seal, unseal
from ..net.addresses import IPv4Addr
from ..net.host import Host
from ..net.packet import Packet
from ..obs.spans import begin as begin_span
from ..sim import Event, Store
from ..transport.tcp import TcpConnection, TcpError, TcpStack, drain_any
from ..transport.udp import Datagram, UdpSocket
from .controller import (
    MC_IP,
    MC_PORT,
    REQUEST_WIRE_BYTES,
    McReply,
    McRequest,
    MimicController,
)
from .multiflow import CHUNK_HEADER, Reassembler, Slicer, decode_header

__all__ = [
    "MicDatagramServer",
    "MicDatagramSocket",
    "MicEndpoint",
    "MicError",
    "MicServer",
    "MicStream",
]


class MicError(Exception):
    """Channel establishment or stream failure."""


class MicStream:
    """A bidirectional anonymous byte stream over one mimic channel."""

    def __init__(self, sim, token: int, rng, channel_id: int = 0,
                 host: Optional[Host] = None):
        self.sim = sim
        self.token = token
        self.channel_id = channel_id
        self.host = host  # set lazily from the first connection if None
        self.conns: list[TcpConnection] = []
        self._slicer = Slicer(token, 1, rng)
        self._reassembler = Reassembler(token)
        #: parked reads, served in order: ``(n, exact, event)``
        self._waiters: deque[tuple[int, bool, Event]] = deque()
        #: attached m-flows that have hit EOF
        self._eof_flows = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- connection management -----------------------------------------
    def add_conn(self, conn: TcpConnection, pump: bool = True) -> None:
        """Attach one m-flow TCP connection (optionally start its pump)."""
        if self.host is None:
            self.host = conn.host
        self.conns.append(conn)
        self._slicer.n_flows = len(self.conns)
        if pump:
            self.sim.process(self._pump(conn), name="mic-stream.pump")

    def _pump(self, conn: TcpConnection):
        while True:
            try:
                hdr = yield from conn.recv_exactly(CHUNK_HEADER.size)
            except TcpError:
                self.feed_eof()
                return
            token, seq, length = decode_header(hdr)
            payload = b""
            if length:
                try:
                    payload = yield from conn.recv_exactly(length)
                except TcpError:
                    self.feed_eof()
                    return
            self.feed(seq, payload)

    # -- incoming ----------------------------------------------------------
    def feed(self, seq: int, payload: bytes) -> None:
        """Deliver one reassembly chunk into the stream."""
        self._reassembler.push(self.token, seq, payload)
        self.bytes_received += len(payload)
        self._serve()

    def feed_eof(self) -> None:
        """Signal that one attached m-flow connection hit EOF; the stream
        ends once every attached m-flow has."""
        self._eof_flows += 1
        self._serve()

    def _serve(self) -> None:
        """Complete parked reads in order: a ``recv`` once any byte is
        reassembled, a ``recv_exactly`` once all of its ``n`` are; at the
        stream's EOF the first fires with ``b""`` and the second fails."""
        waiters = self._waiters
        reassembler = self._reassembler
        while waiters:
            n, exact, ev = waiters[0]
            have = reassembler.available
            if have >= n or (have and not exact):
                waiters.popleft()
                ev.succeed(reassembler.take(n))
            elif (
                self._eof_flows
                and self._eof_flows >= len(self.conns)
                and not reassembler.pending_chunks
            ):
                waiters.popleft()
                if exact:
                    ev.fail(MicError("mic stream closed before full read"))
                else:
                    ev.succeed(b"")
            else:
                break

    # -- API ----------------------------------------------------------------
    @property
    def flow_count(self) -> int:
        """Number of attached m-flow connections."""
        return len(self.conns)

    def send(self, data: bytes) -> None:
        """Slice across m-flows and transmit (returns immediately)."""
        if not self.conns:
            raise MicError("stream has no connections")
        for flow_idx, wire in self._slicer.slice(data):
            self.conns[flow_idx].send(wire)
        self.bytes_sent += len(data)

    def drain(self):
        """Process helper: ``yield from stream.drain()`` after a :meth:`send`
        parks the writer while *every* m-flow is above its send-buffer mark
        (:func:`~repro.transport.tcp.drain_any`), so no m-flow runs dry
        while the writer waits on another."""
        if not self.conns:
            raise MicError("stream has no connections")
        yield from drain_any(self.conns)

    def recv(self, n: int) -> Event:
        """Event firing with up to ``n`` bytes (``b""`` on EOF)."""
        if n <= 0:
            raise ValueError("recv size must be positive")
        ev = self.sim.event()
        self._waiters.append((n, False, ev))
        self._serve()
        return ev

    def recv_exactly(self, n: int):
        """Process helper: ``data = yield from stream.recv_exactly(n)``.

        The read parks once and resumes its process once, with all ``n``
        bytes, in FIFO order with :meth:`recv`.  Raises :class:`MicError`
        if the stream ends first; the bytes that did arrive stay readable.
        ``n == 0`` returns ``b""`` without waiting.
        """
        if n <= 0:
            return b""
        ev = self.sim.event()
        self._waiters.append((n, True, ev))
        self._serve()
        return (yield ev)

    def close(self) -> None:
        """Close every underlying m-flow connection."""
        for conn in self.conns:
            conn.close()


class MicEndpoint:
    """Initiator-side MIC library instance for one host.

    The constructor takes the :class:`MimicController` only to obtain the
    pre-exchanged client key (the paper's out-of-band RSA/DH exchange) —
    no channel state is shared out of band.
    """

    def __init__(
        self,
        host: Host,
        mic: MimicController,
        costs: CryptoCostModel = DEFAULT_COSTS,
    ):
        self.host = host
        self.sim = host.sim
        self.mic = mic
        self.costs = costs
        self.tcp = TcpStack(host)
        self.rng = self.sim.rng(f"mic-client-{host.name}")
        self._key = mic.client_key(host.name)
        #: channel reuse cache: responder spec -> open MicStream
        self._cache: dict[tuple, MicStream] = {}
        self.notify_interval_s: Optional[float] = None

    # ------------------------------------------------------------------
    def connect(
        self,
        responder: Union[str, IPv4Addr],
        service_port: int = 0,
        n_flows: int = 1,
        n_mns: int = 3,
        decoys: int = 0,
        reuse: bool = False,
    ):
        """Process generator: establish a channel → :class:`MicStream`.

        With ``reuse=True`` an open channel to the same responder is
        returned instead of establishing a new one (Sec IV-B1's channel
        reuse for massive short communications).
        """
        cache_key = (str(responder), service_port)
        if reuse and cache_key in self._cache:
            return self._cache[cache_key]

        span = begin_span(
            self.mic.obs, "mic.connect",
            initiator=self.host.name, responder=responder, n_mns=n_mns,
        )
        grant = yield from self._request_channel(
            responder, service_port, n_flows, n_mns, decoys
        )
        stream = MicStream(
            self.sim, token=grant.channel_id, rng=self.rng,
            channel_id=grant.channel_id,
        )
        for fg in grant.flows:
            conn = yield self.tcp.connect(
                fg.entry_ip, fg.entry_port, local_port=fg.source_port
            )
            stream.add_conn(conn)
        span.finish()
        if reuse:
            self._cache[cache_key] = stream
        if self.notify_interval_s is not None:
            self.sim.process(
                self._notify_loop(grant.channel_id), name="mic-client.notify"
            )
        return stream

    def connect_datagram(
        self,
        responder: Union[str, IPv4Addr],
        service_port: int = 0,
        n_mns: int = 3,
        decoys: int = 0,
    ):
        """Process generator: establish a UDP mimic channel →
        :class:`MicDatagramSocket`.

        One m-flow only: datagrams have no stream to slice.  The socket is
        bound to the MC-assigned source port, exactly like the TCP path.
        """
        grant = yield from self._request_channel(
            responder, service_port, 1, n_mns, decoys, proto="udp"
        )
        fg = grant.flows[0]
        sock = UdpSocket(self.host, port=fg.source_port)
        return MicDatagramSocket(sock, fg.entry_ip, fg.entry_port,
                                 channel_id=grant.channel_id,
                                 alt_entries=fg.alt_entries)

    def _request_channel(
        self,
        responder: Union[str, IPv4Addr],
        service_port: int,
        n_flows: int,
        n_mns: int,
        decoys: int,
        proto: str = "tcp",
    ):
        reply_port = self.host.ephemeral_port()
        inbox: Store = Store(self.sim)
        self.host.bind("udp", reply_port, lambda _h, p: inbox.put(p))
        try:
            request = McRequest(
                kind="establish",
                reply_port=reply_port,
                responder=responder,
                service_port=service_port,
                n_flows=n_flows,
                n_mns=n_mns,
                decoys=decoys,
                proto=proto,
            )
            yield from self._send_mc(request, reply_port)
            reply_pkt = yield inbox.get()
            reply = yield from self._open_reply(reply_pkt)
            if not reply.ok or reply.grant is None:
                raise MicError(f"MC refused channel: {reply.error}")
            return reply.grant
        finally:
            self.host.unbind("udp", reply_port)

    def _send_mc(self, request: McRequest, reply_port: int):
        cost = self.costs.aes(REQUEST_WIRE_BYTES)
        self.host.cpu.consume(cost)
        yield self.sim.timeout(cost)
        pkt = self.host.make_packet(
            MC_IP,
            proto="udp",
            sport=reply_port,
            dport=MC_PORT,
            payload=seal(self._key, request),
            payload_size=REQUEST_WIRE_BYTES,
        )
        self.host.send_packet(pkt)

    def _open_reply(self, reply_pkt: Packet):
        cost = self.costs.aes(reply_pkt.payload_size)
        self.host.cpu.consume(cost)
        yield self.sim.timeout(cost)
        reply = unseal(self._key, reply_pkt.payload)
        if not isinstance(reply, McReply):
            raise MicError("malformed MC reply")
        return reply

    # -- lifecycle helpers ----------------------------------------------------
    def shutdown(self, stream: MicStream):
        """Process generator: close the stream and tell the MC."""
        stream.close()
        for key, cached in list(self._cache.items()):
            if cached is stream:
                del self._cache[key]
        reply_port = self.host.ephemeral_port()
        inbox: Store = Store(self.sim)
        self.host.bind("udp", reply_port, lambda _h, p: inbox.put(p))
        try:
            yield from self._send_mc(
                McRequest(kind="shutdown", reply_port=reply_port,
                          channel_id=stream.channel_id),
                reply_port,
            )
            yield inbox.get()
        finally:
            self.host.unbind("udp", reply_port)

    def _notify_loop(self, channel_id: int):
        """Periodic activity notifications (Sec IV-B1's dedicated module)."""
        while self.mic.channel_of(channel_id) is not None:
            yield self.sim.timeout(self.notify_interval_s)
            if self.mic.channel_of(channel_id) is None:
                return
            reply_port = self.host.ephemeral_port()
            inbox: Store = Store(self.sim)
            self.host.bind("udp", reply_port, lambda _h, p: inbox.put(p))
            try:
                yield from self._send_mc(
                    McRequest(kind="notify", reply_port=reply_port,
                              channel_id=channel_id),
                    reply_port,
                )
                yield inbox.get()
            finally:
                self.host.unbind("udp", reply_port)


class MicDatagramSocket:
    """Initiator-side datagram channel: fire-and-forget through the fabric.

    Under a multiplexing anonymity strategy (FRVM) the grant carries
    alias entry lanes; sends round-robin across every granted lane so no
    single observed entry address covers the conversation.
    """

    def __init__(self, sock: UdpSocket, entry_ip: IPv4Addr, entry_port: int,
                 channel_id: int = 0, alt_entries: tuple = ()):
        self.sock = sock
        self.entry_ip = entry_ip
        self.entry_port = entry_port
        self.channel_id = channel_id
        self.lanes: tuple = ((entry_ip, entry_port), *alt_entries)
        self._next_lane = 0

    def send(self, data: bytes) -> None:
        """Send one datagram into the mimic channel (striped across lanes)."""
        ip, port = self.lanes[self._next_lane]
        self._next_lane = (self._next_lane + 1) % len(self.lanes)
        self.sock.sendto(data, ip, port)

    def recv(self):
        """Event firing with the next reply :class:`Datagram`."""
        return self.sock.recvfrom()

    def close(self) -> None:
        """Close the underlying UDP socket."""
        self.sock.close()


class MicDatagramServer:
    """Responder-side datagram endpoint.

    Replies go back to the mimic source the datagram arrived with; the
    reverse rules carry them home.
    """

    def __init__(self, host: Host, port: int):
        self.host = host
        self.port = port
        self.sock = UdpSocket(host, port=port)

    def recv(self):
        """Event firing with the next received :class:`Datagram`."""
        return self.sock.recvfrom()

    def reply(self, datagram: Datagram, data: bytes) -> None:
        """Answer a datagram via its (mimic) source address."""
        self.sock.sendto(data, datagram.src_ip, datagram.sport)

    def close(self) -> None:
        """Close the service socket."""
        self.sock.close()


class MicServer:
    """Responder-side MIC library: accept mimic channels as streams."""

    def __init__(self, host: Host, port: int):
        self.host = host
        self.sim = host.sim
        self.port = port
        self.tcp = TcpStack(host)
        self._listener = self.tcp.listen(port)
        self._streams: dict[int, MicStream] = {}
        self._accept_box: Store = Store(self.sim)
        self.rng = self.sim.rng(f"mic-server-{host.name}")
        self.sim.process(self._accept_loop(), name=f"mic-server-{host.name}")

    def accept(self) -> Event:
        """Event firing with the next new channel's :class:`MicStream`."""
        return self._accept_box.get()

    def _accept_loop(self):
        while True:
            conn = yield self._listener.accept()
            self.sim.process(self._conn_reader(conn), name="mic-server.reader")

    def _conn_reader(self, conn: TcpConnection):
        # The first chunk on a connection reveals the channel token.
        try:
            hdr = yield from conn.recv_exactly(CHUNK_HEADER.size)
        except TcpError:
            return
        token, seq, length = decode_header(hdr)
        payload = b""
        if length:
            try:
                payload = yield from conn.recv_exactly(length)
            except TcpError:
                return
        stream = self._streams.get(token)
        if stream is None:
            stream = MicStream(self.sim, token=token, rng=self.rng,
                               channel_id=token)
            self._streams[token] = stream
            self._accept_box.put(stream)
        stream.add_conn(conn, pump=False)
        stream.feed(seq, payload)
        # Continue pumping this connection into the stream.
        yield from stream._pump(conn)
