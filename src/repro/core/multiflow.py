"""Multiple m-flows mechanism (Sec IV-C): slicing and reassembly.

The initiator divides the user byte stream into chunks and spreads them over
the channel's m-flows so that no single flow carries the channel's true
traffic size — "each m-flow carries different amount of slices".  Chunk
sizes and flow assignment are randomized; every chunk carries a small header
``(channel token, sequence number, length)`` so the far end can reassemble
the stream regardless of per-flow arrival order.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

__all__ = ["CHUNK_HEADER", "Slicer", "Reassembler", "encode_chunk", "decode_header"]

#: wire header: 8-byte channel token, 4-byte seq, 2-byte payload length
CHUNK_HEADER = struct.Struct("!QIH")

MAX_CHUNK = 1200
MIN_CHUNK = 256


def encode_chunk(token: int, seq: int, payload: bytes) -> bytes:
    """Serialize one chunk: header + payload bytes."""
    if len(payload) > 0xFFFF:
        raise ValueError("chunk too large")
    return CHUNK_HEADER.pack(token, seq, len(payload)) + payload


def decode_header(data: bytes) -> tuple[int, int, int]:
    """(token, seq, length) from a header-sized prefix."""
    return CHUNK_HEADER.unpack(data[: CHUNK_HEADER.size])


class Slicer:
    """Splits a byte stream into randomized chunks spread across flows."""

    def __init__(self, token: int, n_flows: int, rng):
        if n_flows < 1:
            raise ValueError("need at least one flow")
        self.token = token
        self.n_flows = n_flows
        self.rng = rng
        self._seq = 0

    def slice(self, data: bytes) -> Iterator[tuple[int, bytes]]:
        """Yield ``(flow_index, wire_bytes)`` chunks covering ``data``."""
        off = 0
        while off < len(data):
            if self.n_flows == 1:
                size = MAX_CHUNK
            else:
                size = self.rng.randint(MIN_CHUNK, MAX_CHUNK)
            payload = data[off : off + size]
            off += len(payload)
            flow = self.rng.randrange(self.n_flows)
            yield flow, encode_chunk(self.token, self._seq, payload)
            self._seq += 1


class Reassembler:
    """Reorders chunks (possibly arriving on different flows) by sequence."""

    def __init__(self, token: Optional[int] = None):
        self.token = token
        self._next_seq = 0
        self._pending: dict[int, bytes] = {}
        self._ready = bytearray()

    def push(self, token: int, seq: int, payload: bytes) -> None:
        """Accept one chunk (any order; duplicates ignored)."""
        if self.token is None:
            self.token = token
        elif token != self.token:
            raise ValueError(f"chunk token {token} does not belong to {self.token}")
        if seq < self._next_seq or seq in self._pending:
            return  # duplicate
        self._pending[seq] = payload
        while self._next_seq in self._pending:
            self._ready.extend(self._pending.pop(self._next_seq))
            self._next_seq += 1

    def take(self, n: Optional[int] = None) -> bytes:
        """Up to ``n`` contiguous bytes (all available if ``n`` is None)."""
        ready = self._ready
        if n is None or n > len(ready):
            n = len(ready)
        with memoryview(ready) as view:
            out = bytes(view[:n])
        del ready[:n]
        return out

    @property
    def available(self) -> int:
        """Contiguous bytes ready to take."""
        return len(self._ready)

    @property
    def pending_chunks(self) -> int:
        """Out-of-order chunks buffered past the gap."""
        return len(self._pending)
