"""Tor client: telescoping circuit construction and onion streams.

The client builds a circuit hop by hop (CREATE to the guard, then EXTEND
relayed through the partial circuit — each extension costs a full round trip
through every existing hop plus asymmetric crypto at the new hop, which is
why Tor's route-setup time in Fig 7 grows with route length), then opens a
stream through the exit and exchanges onion-sealed data cells.
"""

from __future__ import annotations

from typing import Any, Optional

from ..crypto import DEFAULT_COSTS, CryptoCostModel, Key, KeyExchange, Sealed, seal, unseal
from ..net.addresses import IPv4Addr
from ..net.host import Host
from ..sim import Store
from ..transport.framing import MessageChannel
from ..transport.tcp import TcpStack
from .cells import (
    CELL_SIZE,
    BeginPayload,
    ConnectedPayload,
    CreateCell,
    CreatedCell,
    DataPayload,
    EndPayload,
    ExtendPayload,
    ExtendedPayload,
    RelayCell,
    SendmePayload,
)
from .directory import OR_PORT, TorDirectory
from .flowctl import SENDME_EVERY_CELLS, STREAM_WINDOW_CELLS, Window

__all__ = ["TorClient", "TorCircuit", "TorStream", "DEFAULT_ROUTE_LEN"]

#: Tor's default circuit length (the constant the paper patched to vary it)
DEFAULT_ROUTE_LEN = 3

class TorStream:
    """Application byte stream over a circuit (one stream per circuit)."""

    def __init__(self, circuit: "TorCircuit"):
        self.circuit = circuit
        self._buf = bytearray()
        self._eof = False
        self._incoming: Store = Store(circuit.sim)
        #: stream-level SENDME window for outgoing data cells
        self._fwd_window = Window(circuit.sim, STREAM_WINDOW_CELLS)
        self._bwd_cells_received = 0

    # -- sending ----------------------------------------------------------
    def send(self, data: bytes):
        """Process generator: slice into data cells, respecting the SENDME
        window (this is why Tor throughput decays with circuit length —
        the window is fixed while the RTT grows)."""
        max_chunk = CELL_SIZE - 14
        for off in range(0, len(data), max_chunk):
            chunk = bytes(data[off : off + max_chunk])
            yield from self._fwd_window.acquire()
            yield from self.circuit.send_forward(DataPayload(chunk))

    # -- receiving ----------------------------------------------------------
    def _deliver(self, payload: Any) -> None:
        if isinstance(payload, DataPayload):
            self._incoming.put(payload.data)
            self._bwd_cells_received += 1
            if self._bwd_cells_received % SENDME_EVERY_CELLS == 0:
                # Grant the exit another SENDME batch (control cells bypass
                # the data window).
                self.circuit.sim.process(
                    self.circuit.send_forward(SendmePayload()),
                    name="tor-stream.sendme",
                )
        elif isinstance(payload, SendmePayload):
            self._fwd_window.release(SENDME_EVERY_CELLS)
        elif isinstance(payload, EndPayload):
            self._incoming.put(b"")

    def recv(self, n: int):
        """Process generator: up to ``n`` bytes (``b""`` = EOF)."""
        while not self._buf and not self._eof:
            chunk = yield self._incoming.get()
            if chunk == b"":
                self._eof = True
            else:
                self._buf.extend(chunk)
        take = min(n, len(self._buf))
        out = bytes(self._buf[:take])
        del self._buf[:take]
        return out

    def recv_exactly(self, n: int):
        """Process generator: exactly ``n`` bytes or ConnectionError."""
        chunks = []
        remaining = n
        while remaining > 0:
            chunk = yield from self.recv(remaining)
            if not chunk:
                raise ConnectionError("tor stream closed before full read")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self):
        """Process generator: send the stream-end cell."""
        yield from self.circuit.send_forward(EndPayload())


class TorCircuit:
    """Client-side circuit state: hop keys and the guard connection."""

    def __init__(self, client: "TorClient", circ_id: int, session: str):
        self.client = client
        self.sim = client.sim
        self.circ_id = circ_id
        self.session = session
        self.keys: list[Key] = []
        self.route: list[str] = []
        self.channel: Optional[MessageChannel] = None
        self._control: Store = Store(client.sim)  # CreatedCell / Extended / Connected
        self.stream: Optional[TorStream] = None

    @property
    def length(self) -> int:
        """Number of completed hops."""
        return len(self.keys)

    # -- onion helpers ----------------------------------------------------
    def _wrap(self, payload: Any, upto: Optional[int] = None) -> Sealed:
        """Seal for delivery to hop ``upto`` (default: last hop)."""
        hops = self.keys if upto is None else self.keys[:upto]
        wrapped: Any = payload
        for key in reversed(hops):
            wrapped = seal(key, wrapped)
        return wrapped

    def _unwrap(self, payload: Any) -> Any:
        for key in self.keys:
            payload = unseal(key, payload)
            if not isinstance(payload, Sealed):
                break
        return payload

    def _client_crypto(self, layers: int):
        cost = self.client.costs.onion_layers(CELL_SIZE, layers)
        self.client.host.cpu.consume(cost)
        return self.sim.timeout(cost)

    # -- cell IO ---------------------------------------------------------
    def send_forward(self, payload: Any, upto: Optional[int] = None):
        """Process generator: onion-wrap and transmit a forward cell."""
        hops = len(self.keys) if upto is None else upto
        yield self._client_crypto(hops)
        self.channel.send(RelayCell(self.circ_id, self._wrap(payload, upto), "fwd"), CELL_SIZE)

    def _reader_loop(self):
        while True:
            cell, _ = yield from self.channel.recv()
            if isinstance(cell, CreatedCell):
                self._control.put(cell)
                continue
            if not (isinstance(cell, RelayCell) and cell.direction == "bwd"):
                continue
            yield self._client_crypto(len(self.keys))
            inner = self._unwrap(cell.payload)
            if isinstance(inner, (ExtendedPayload, ConnectedPayload)):
                self._control.put(inner)
            elif isinstance(inner, (DataPayload, EndPayload, SendmePayload)):
                if self.stream is not None:
                    self.stream._deliver(inner)


class TorClient:
    """The onion proxy running on an end host."""

    def __init__(
        self,
        host: Host,
        directory: TorDirectory,
        costs: CryptoCostModel = DEFAULT_COSTS,
    ):
        self.host = host
        self.sim = host.sim
        self.directory = directory
        self.costs = costs
        self.tcp = TcpStack(host)
        self.rng = self.sim.rng(f"tor-client-{host.name}")

    # -- circuit construction ---------------------------------------------
    def build_circuit(
        self,
        route: Optional[list[str]] = None,
        length: int = DEFAULT_ROUTE_LEN,
        avoid_ips: tuple = (),
    ):
        """Process generator: telescoping construction → :class:`TorCircuit`."""
        if route is None:
            route = self.directory.pick_route(
                length, self.rng,
                exclude_hosts=[self.host.name],
                exclude_ips=avoid_ips,
            )
        if not route:
            raise ValueError("empty route")
        session = f"sess-{self.host.name}-{self.rng.getrandbits(48)}"
        circuit = TorCircuit(self, next(self.sim.ids("tor.circuit")), session)
        circuit.route = list(route)

        # Hop 1: direct CREATE to the guard.
        guard = self.directory.get(route[0])
        conn = yield self.tcp.connect(guard.ip, OR_PORT)
        circuit.channel = MessageChannel(conn)
        self.sim.process(circuit._reader_loop(), name=f"tor-client-{self.host.name}.reader")
        nonce = self.rng.getrandbits(64)
        self._burn_extend_cpu()
        yield self.sim.timeout(self.costs.tor_client_extend_cpu_s())
        circuit.channel.send(CreateCell(circuit.circ_id, session, nonce), CELL_SIZE)
        created = yield circuit._control.get()
        assert isinstance(created, CreatedCell)
        circuit.keys.append(KeyExchange.initiate(session, route[0], nonce))

        # Hops 2..N: EXTEND relayed through the partial circuit.
        for relay_name in route[1:]:
            nonce = self.rng.getrandbits(64)
            self._burn_extend_cpu()
            yield self.sim.timeout(self.costs.tor_client_extend_cpu_s())
            yield from circuit.send_forward(
                ExtendPayload(relay_name, session, nonce)
            )
            reply = yield circuit._control.get()
            assert isinstance(reply, ExtendedPayload)
            circuit.keys.append(KeyExchange.initiate(session, relay_name, nonce))
        return circuit

    def _burn_extend_cpu(self) -> None:
        self.host.cpu.consume(self.costs.tor_client_extend_cpu_s())

    # -- streams --------------------------------------------------------------
    def connect(
        self,
        target_ip: IPv4Addr,
        target_port: int,
        route: Optional[list[str]] = None,
        length: int = DEFAULT_ROUTE_LEN,
    ):
        """Process generator: build circuit + open stream → :class:`TorStream`."""
        circuit = yield from self.build_circuit(
            route=route, length=length, avoid_ips=(target_ip,)
        )
        yield from circuit.send_forward(BeginPayload(target_ip, target_port))
        reply = yield circuit._control.get()
        assert isinstance(reply, ConnectedPayload)
        stream = TorStream(circuit)
        circuit.stream = stream
        return stream
