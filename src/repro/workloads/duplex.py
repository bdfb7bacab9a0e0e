"""Uniform duplex-stream adapter.

The four protocol endpoints measured in the paper expose slightly different
APIs (plain TCP and MIC sends queue at once and ``drain`` parks the writer at
the send-buffer mark; SSL and Tor sends are process generators because they
burn crypto time inline).  :func:`as_duplex` wraps any of them
behind one interface so workload drivers and benches are protocol-agnostic:

    yield from duplex.send(data)
    data = yield from duplex.recv_exactly(n)
"""

from __future__ import annotations

from typing import Any

from ..core.client import MicStream
from ..tor.client import TorStream
from ..transport.ssl import SslConnection
from ..transport.tcp import TcpConnection

__all__ = ["Duplex", "as_duplex"]


class Duplex:
    """Protocol-agnostic send/recv wrapper (all methods are generators)."""

    def __init__(self, inner: Any):
        self.inner = inner

    def send(self, data: bytes):
        """Process generator: transmit bytes.

        A TCP or MIC writer parks at its send-buffer mark (``drain``); SSL
        and Tor writers burn crypto time inline and never park.
        """
        if isinstance(self.inner, (SslConnection, TorStream)):
            yield from self.inner.send(data)
        else:
            self.inner.send(data)
            yield from self.inner.drain()

    def recv_exactly(self, n: int):
        """Process generator: exactly ``n`` received bytes."""
        data = yield from self.inner.recv_exactly(n)
        return data

    def close(self) -> None:
        """Close the wrapped endpoint."""
        result = self.inner.close()
        # TorStream.close is a generator; run it to completion is the
        # caller's job only for Tor — treat best-effort here.
        if result is not None and hasattr(result, "send"):
            try:
                next(result)
            except StopIteration:
                pass

    @property
    def kind(self) -> str:
        """The wrapped endpoint's type name."""
        return type(self.inner).__name__


def as_duplex(endpoint: Any) -> Duplex:
    """Wrap a TcpConnection, SslConnection, MicStream or TorStream."""
    if isinstance(endpoint, (TcpConnection, SslConnection, MicStream, TorStream)):
        return Duplex(endpoint)
    raise TypeError(f"cannot adapt {type(endpoint).__name__} to a duplex stream")
