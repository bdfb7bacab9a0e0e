"""Packet model.

A :class:`Packet` is a flat record of the header fields the reproduction
needs — Ethernet, optional MPLS shim, IPv4, and an L4 (TCP/UDP) part — plus
an abstract payload.  Switch nodes rewrite header fields in place (that is
exactly what MIC's Mimic Nodes do), so header fields are mutable while
identity/lineage fields are not.

Two identity notions matter for the security analysis:

* ``uid`` — unique per packet *instance*; multicast copies get fresh uids.
* ``content_tag`` — identifies the wire *content* of the payload.  MIC's MNs
  rewrite headers but cannot touch payloads, so the tag survives MN hops
  (the correlation weakness the paper acknowledges in Sec IV-C).  Tor's
  per-hop onion decryption, in contrast, produces a new tag at each relay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .addresses import IPv4Addr, MacAddr

__all__ = [
    "Packet",
    "ETH_HEADER",
    "IP_HEADER",
    "TCP_HEADER",
    "UDP_HEADER",
    "MPLS_SHIM",
]

ETH_HEADER = 14
IP_HEADER = 20
TCP_HEADER = 20
UDP_HEADER = 8
MPLS_SHIM = 4


@dataclass(slots=True)
class Packet:
    """One packet on the wire.

    Header fields (``eth_*``, ``ip_*``, ``sport``/``dport``, ``mpls``) are
    mutable — rewriting them is MIC's core mechanism.  ``payload`` is any
    Python object (a TCP segment, a controller message, raw bytes).
    """

    eth_src: MacAddr
    eth_dst: MacAddr
    ip_src: IPv4Addr
    ip_dst: IPv4Addr
    proto: str = "tcp"  # "tcp" | "udp"
    sport: int = 0
    dport: int = 0
    mpls: Optional[int] = None
    ttl: int = 64
    payload: Any = None
    payload_size: int = 0
    #: minted by whoever puts the packet on the wire, from the deployment's
    #: ``packet.uid`` / ``packet.tag`` namespaces (:meth:`Simulator.ids`);
    #: 0 on a packet no deployment made
    uid: int = 0
    content_tag: int = 0
    created_at: float = 0.0

    def __post_init__(self) -> None:
        for name, port in (("sport", self.sport), ("dport", self.dport)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")
        if self.mpls is not None and not 0 <= self.mpls < (1 << 32):
            # The real MPLS label is 20 bits; the paper reasons over a 32-bit
            # label, so the model accepts the wider range (configurable at
            # the label-space layer).
            raise ValueError(f"mpls label out of range: {self.mpls}")
        if self.proto not in ("tcp", "udp"):
            raise ValueError(f"unknown proto: {self.proto!r}")
        if self.payload_size < 0:
            raise ValueError("negative payload size")

    # ------------------------------------------------------------------
    @property
    def header_size(self) -> int:
        """Total header bytes (Ethernet + shim + IP + L4)."""
        l4 = TCP_HEADER if self.proto == "tcp" else UDP_HEADER
        shim = MPLS_SHIM if self.mpls is not None else 0
        return ETH_HEADER + shim + IP_HEADER + l4

    @property
    def size(self) -> int:
        """Total on-wire size in bytes (``header_size + payload_size``)."""
        l4 = TCP_HEADER if self.proto == "tcp" else UDP_HEADER
        shim = MPLS_SHIM if self.mpls is not None else 0
        return ETH_HEADER + shim + IP_HEADER + l4 + self.payload_size

    # ------------------------------------------------------------------
    def match_tuple(self) -> tuple[IPv4Addr, IPv4Addr, Optional[int]]:
        """The ⟨src_ip, dst_ip, mpls⟩ triple MIC uses to identify a flow."""
        return (self.ip_src, self.ip_dst, self.mpls)

    def five_tuple(self) -> tuple[IPv4Addr, IPv4Addr, str, int, int]:
        """The classic connection 5-tuple."""
        return (self.ip_src, self.ip_dst, self.proto, self.sport, self.dport)

    def copy(self, uid: Optional[int] = None) -> "Packet":
        """A duplicate of this packet.

        Given a ``uid`` (minted by the caller — the flow table, for partial
        multicast) the copy is a new packet instance; without one it keeps
        this packet's.  Either way it keeps the ``content_tag`` — on the
        wire the decoy copies carry the same bytes.

        Every switch emission is a copy, and ``SetField`` rewrites with
        ``setattr``, so this is where a port or label rewritten out of range
        is rejected: the range checks of ``__post_init__`` run inline here
        (a violation calls it, so the error is the constructor's own), then
        the fields are stored slot by slot instead of through ``__init__``.
        """
        mpls = self.mpls
        if not (
            0 <= self.sport <= 0xFFFF
            and 0 <= self.dport <= 0xFFFF
            and (mpls is None or 0 <= mpls < (1 << 32))
            and self.proto in ("tcp", "udp")
            and self.payload_size >= 0
        ):
            self.__post_init__()
        dup = object.__new__(Packet)
        dup.eth_src = self.eth_src
        dup.eth_dst = self.eth_dst
        dup.ip_src = self.ip_src
        dup.ip_dst = self.ip_dst
        dup.proto = self.proto
        dup.sport = self.sport
        dup.dport = self.dport
        dup.mpls = mpls
        dup.ttl = self.ttl
        dup.payload = self.payload
        dup.payload_size = self.payload_size
        dup.uid = self.uid if uid is None else uid
        dup.content_tag = self.content_tag
        dup.created_at = self.created_at
        return dup

    def summary(self) -> str:
        """One-line human-readable description."""
        mpls = f" mpls={self.mpls}" if self.mpls is not None else ""
        return (
            f"{self.ip_src}:{self.sport}->{self.ip_dst}:{self.dport}"
            f"/{self.proto}{mpls} len={self.size}"
        )
