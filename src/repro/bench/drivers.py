"""Protocol session drivers.

Each driver is a process generator that stands up one end-to-end session of
its protocol on a :class:`~repro.bench.testbed.Testbed` and returns a
:class:`Session`: client/server duplex endpoints plus the measured setup
time (the quantity Fig 7 plots).

Route-length semantics follow the paper: for MIC it is the number of
address rewrites (MNs) along the path, for Tor the number of relays; plain
TCP/SSL have no route length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..transport.ssl import SslConnection
from ..workloads.duplex import Duplex, as_duplex
from .testbed import Testbed

__all__ = ["Session", "open_tcp", "open_ssl", "open_mic", "open_tor"]


@dataclass
class Session:
    """One established protocol session between two hosts."""

    protocol: str
    client: Duplex
    server: Duplex
    setup_s: float
    extra: Any = None


def _wait_for(sim, holder: dict, key: str, step_s: float = 1e-5):
    while key not in holder:
        yield sim.timeout(step_s)
    return holder[key]


def _record_setup(
    bed: Testbed, protocol: str, start_s: float, end_s: float,
    duration_s: Optional[float] = None,
) -> None:
    """Record a ``bench.setup`` span on the testbed's observer (if any).

    The span carries the driver's own timing values, so span-derived setup
    numbers are bit-identical to :attr:`Session.setup_s`.  ``duration_s``
    overrides ``end - start`` for setups timed as disjoint windows
    (MIC-SSL: MIC connect + TLS handshake, excluding the acceptor wait).
    """
    if bed.obs is not None:
        bed.obs.spans.record(
            "bench.setup", start_s, end_s, duration_s, protocol=protocol
        )


# ---------------------------------------------------------------------------
def open_tcp(bed: Testbed, src: str, dst: str, port: int):
    """Process generator: plain TCP session (the baseline)."""
    sim = bed.net.sim
    server_stack = bed.tcp_stack(dst)
    listener = server_stack.listen(port)
    holder: dict = {}

    def acceptor():
        holder["server"] = yield listener.accept()

    sim.process(acceptor(), name="drv.tcp.accept")
    client_stack = bed.tcp_stack(src)
    t0 = sim.now
    conn = yield client_stack.connect(bed.net.host(dst).ip, port)
    setup = sim.now - t0
    _record_setup(bed, "tcp", t0, t0 + setup)
    server_conn = yield from _wait_for(sim, holder, "server")
    return Session("tcp", as_duplex(conn), as_duplex(server_conn), setup)


# ---------------------------------------------------------------------------
def open_ssl(bed: Testbed, src: str, dst: str, port: int):
    """Process generator: SSL session (TCP + TLS handshake)."""
    sim = bed.net.sim
    server_ssl = bed.ssl_stack(dst)
    listener = server_ssl.tcp.listen(port)
    holder: dict = {}

    def acceptor():
        holder["server"] = yield from server_ssl.accept_on(listener)

    sim.process(acceptor(), name="drv.ssl.accept")
    client_ssl = bed.ssl_stack(src)
    t0 = sim.now
    conn = yield from client_ssl.connect(bed.net.host(dst).ip, port)
    setup = sim.now - t0
    _record_setup(bed, "ssl", t0, t0 + setup)
    server_conn = yield from _wait_for(sim, holder, "server")
    return Session("ssl", as_duplex(conn), as_duplex(server_conn), setup)


# ---------------------------------------------------------------------------
def open_mic(
    bed: Testbed,
    src: str,
    dst: str,
    port: int,
    n_flows: int = 1,
    n_mns: int = 3,
    decoys: int = 0,
    over_ssl: bool = False,
):
    """Process generator: MIC session (MIC-TCP, or MIC-SSL with ``over_ssl``).

    Setup time is the paper's "MIC connect": encrypted request to the MC,
    grant, and the per-m-flow transport connects.  A 1-byte preamble (sent
    after the clock stops) materializes the server-side stream.
    """
    sim = bed.net.sim
    server = bed.server(dst, port)
    endpoint = bed.endpoint(src)
    holder: dict = {}

    def acceptor():
        stream = yield server.accept()
        pre = yield from stream.recv_exactly(1)
        assert pre == b"\x00"
        holder["server"] = stream

    sim.process(acceptor(), name="drv.mic.accept")
    t0 = sim.now
    stream = yield from endpoint.connect(
        dst, service_port=port, n_flows=n_flows, n_mns=n_mns, decoys=decoys
    )
    setup = sim.now - t0
    stream.send(b"\x00")  # preamble, outside the timed window
    server_stream = yield from _wait_for(sim, holder, "server")

    if not over_ssl:
        _record_setup(bed, "mic-tcp", t0, t0 + setup)
        return Session(
            "mic-tcp", as_duplex(stream), as_duplex(server_stream), setup,
            extra=endpoint,
        )

    # MIC-SSL: run a TLS handshake *through* the mimic channel.
    client_tls = SslConnection(stream, is_server=False)
    server_tls = SslConnection(server_stream, is_server=True)
    tls_done: dict = {}

    def server_handshake():
        yield from server_tls.handshake()
        tls_done["server"] = True

    sim.process(server_handshake(), name="drv.mic.tls")
    t1 = sim.now
    yield from client_tls.handshake()
    yield from _wait_for(sim, tls_done, "server")
    setup += sim.now - t1
    _record_setup(bed, "mic-ssl", t0, sim.now, duration_s=setup)
    return Session(
        "mic-ssl", as_duplex(client_tls), as_duplex(server_tls), setup,
        extra=endpoint,
    )


# ---------------------------------------------------------------------------
def open_tor(
    bed: Testbed,
    src: str,
    dst: str,
    port: int,
    route_len: int = 3,
    route: Optional[list[str]] = None,
):
    """Process generator: Tor session through the local relay deployment.

    Setup time covers telescoping circuit construction plus the BEGIN/
    CONNECTED stream open — what ``connect()`` through torsocks waits for.
    """
    sim = bed.net.sim
    server_stack = bed.tcp_stack(dst)
    listener = server_stack.listen(port)
    holder: dict = {}

    def acceptor():
        holder["server"] = yield listener.accept()

    sim.process(acceptor(), name="drv.tor.accept")
    client = bed.tor_client(src)
    t0 = sim.now
    stream = yield from client.connect(
        bed.net.host(dst).ip, port, route=route, length=route_len
    )
    setup = sim.now - t0
    _record_setup(bed, "tor", t0, t0 + setup)
    server_conn = yield from _wait_for(sim, holder, "server")
    return Session("tor", as_duplex(stream), as_duplex(server_conn), setup)
