"""iperf-equivalent bulk-transfer measurement.

The paper measures throughput with iperf (and "a modified Iperf for MIC and
SSL").  :func:`measure_transfer` drives ``nbytes`` through any
:class:`~repro.workloads.duplex.Duplex` pair on the simulated clock and
reports goodput; :func:`measure_echo` is the 10-byte round-trip latency
probe behind Fig 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Simulator
from .duplex import Duplex

__all__ = ["TransferResult", "EchoResult", "measure_transfer", "measure_echo"]

SEND_CHUNK = 64 * 1024


@dataclass(frozen=True)
class TransferResult:
    """One bulk transfer's outcome."""

    bytes: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Wall (simulated) duration of the transfer."""
        return self.end_s - self.start_s

    @property
    def goodput_bps(self) -> float:
        """Application-level throughput in bits/second."""
        if self.duration_s <= 0:
            return float("inf")
        return self.bytes * 8.0 / self.duration_s


@dataclass(frozen=True)
class EchoResult:
    """One request/reply round trip."""

    rtt_s: float
    payload_bytes: int


def measure_transfer(sim: Simulator, tx: Duplex, rx: Duplex, nbytes: int):
    """Process generator: pump ``nbytes`` tx → rx, return TransferResult.

    The sender writes ``SEND_CHUNK`` pieces through :meth:`Duplex.send`:
    a TCP or MIC writer parks once its send buffer holds two windows
    (``TcpConnection.drain``), so it holds about two windows rather than the
    whole payload, and the wire is what queueing everything at time zero
    would give.  SSL and Tor writers are paced by their crypto and cells.
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    result: dict = {}

    def sender():
        sent = 0
        while sent < nbytes:
            chunk = min(SEND_CHUNK, nbytes - sent)
            yield from tx.send(b"\x5a" * chunk)
            sent += chunk
        return sent

    def receiver():
        got = 0
        while got < nbytes:
            step = min(SEND_CHUNK, nbytes - got)
            yield from rx.recv_exactly(step)
            got += step
        return got

    start = sim.now
    send_proc = sim.process(sender(), name="iperf.sender")
    recv_proc = sim.process(receiver(), name="iperf.receiver")
    yield recv_proc
    yield send_proc
    return TransferResult(bytes=nbytes, start_s=start, end_s=sim.now)


def measure_echo(sim: Simulator, client: Duplex, server: Duplex, nbytes: int = 10):
    """Process generator: the paper's latency probe — the client sends
    ``nbytes``, the server echoes ``nbytes`` back; returns the RTT."""

    def echo_side():
        data = yield from server.recv_exactly(nbytes)
        yield from server.send(data)

    sim.process(echo_side(), name="echo.server")
    t0 = sim.now
    yield from client.send(b"\x42" * nbytes)
    yield from client.recv_exactly(nbytes)
    return EchoResult(rtt_s=sim.now - t0, payload_bytes=nbytes)
