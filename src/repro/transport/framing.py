"""Length-prefixed message framing over the simulated TCP byte stream.

Tor cells (and any other structured message) ride the byte stream as
``[4-byte size][8-byte object id][size padding bytes]`` frames.  The object
itself is parked in the simulator's ``frames_in_flight`` (both ends of a
connection share the simulator, and the receiver looks a frame up by its id
alone) and claimed exactly once by the receiver when the frame's last byte
arrives — so message *timing* and *wire size* are faithful to the byte stream
while the content stays a rich Python object.
"""

from __future__ import annotations

import struct
from typing import Any

from .tcp import TcpConnection

__all__ = ["MessageChannel"]

_HEADER = struct.Struct("!IQ")


class MessageChannel:
    """Message-oriented adapter over a :class:`TcpConnection`."""

    def __init__(self, conn: TcpConnection):
        self.conn = conn
        self._frame_ids = conn.sim.ids("framing.frame")
        self._in_flight = conn.sim.frames_in_flight

    def send(self, obj: Any, wire_size: int) -> None:
        """Send ``obj`` as a frame occupying ``wire_size`` body bytes."""
        if wire_size < 0:
            raise ValueError("negative wire size")
        oid = next(self._frame_ids)
        self._in_flight[oid] = obj
        self.conn.send(_HEADER.pack(wire_size, oid) + b"\x00" * wire_size)

    def recv(self):
        """Process generator: receive one frame → ``(obj, wire_size)``."""
        header = yield from self.conn.recv_exactly(_HEADER.size)
        wire_size, oid = _HEADER.unpack(header)
        if wire_size:
            yield from self.conn.recv_exactly(wire_size)
        try:
            return self._in_flight.pop(oid), wire_size
        except KeyError:
            raise KeyError(f"message {oid} already claimed or never sent") from None

    def close(self) -> None:
        """Close the underlying connection."""
        self.conn.close()

    @property
    def host(self):
        """The endpoint's host."""
        return self.conn.host

    @property
    def sim(self):
        """The endpoint's simulator."""
        return self.conn.sim
