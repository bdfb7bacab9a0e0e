"""End-host node.

A host owns one NIC port, an IP/MAC identity, and an L4 demux table that the
transport layer (:mod:`repro.transport`) binds listeners into.  Sending and
receiving both traverse a modeled protocol stack (latency + CPU), which is
what makes Tor's host-level relaying measurably expensive compared to MIC's
in-network rewriting.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim import Simulator
from .addresses import IPv4Addr, MacAddr
from .node import Node
from .packet import Packet
from .params import NetParams

__all__ = ["Host"]

#: callback type for bound ports: (host, packet) -> None
L4Handler = Callable[["Host", Packet], None]

NIC_PORT = 0

#: destination MAC of a packet made without one (addresses are immutable,
#: so every such packet shares this instance)
_BROADCAST_MAC = MacAddr(0xFFFFFFFFFFFF)


class Host(Node):
    """An end host with a single NIC on port 0."""

    kind = "host"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: NetParams,
        ip_addr: IPv4Addr,
        mac_addr: MacAddr,
    ):
        super().__init__(sim, name, params)
        self.ip = ip_addr
        self.mac = mac_addr
        self._bindings: dict[tuple[str, int], L4Handler] = {}
        self.default_handler: Optional[L4Handler] = None
        self.promiscuous = False  # accept packets not addressed to our IP
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.packets_refused = 0
        self._ephemeral_next = 49152
        self._uids = sim.ids("packet.uid")
        self._tags = sim.ids("packet.tag")

    # -- L4 demux ------------------------------------------------------------
    def bind(self, proto: str, port: int, handler: L4Handler) -> None:
        """Register an L4 handler for (proto, port)."""
        key = (proto, port)
        if key in self._bindings:
            raise ValueError(f"{self.name}: {proto}/{port} already bound")
        self._bindings[key] = handler

    def unbind(self, proto: str, port: int) -> None:
        """Remove an L4 binding if present."""
        self._bindings.pop((proto, port), None)

    def is_bound(self, proto: str, port: int) -> bool:
        """True if (proto, port) has a handler."""
        return (proto, port) in self._bindings

    def ephemeral_port(self) -> int:
        """Allocate a fresh client-side port."""
        port = self._ephemeral_next
        self._ephemeral_next += 1
        if self._ephemeral_next > 0xFFFF:
            self._ephemeral_next = 49152
        return port

    # -- sending ---------------------------------------------------------------
    def send_packet(self, packet: Packet) -> None:
        """Push a fully-formed packet out of the NIC through the stack.

        The stack delay ends in the NIC channel's ``send``, scheduled
        directly; a host whose port 0 is unwired raises ``ValueError`` here,
        before anything is booked.
        """
        # Node.transmit, resolved up front: one frame less per packet
        channel = self.ports.get(NIC_PORT)
        if channel is None:
            raise ValueError(f"{self.name}: no channel on port {NIC_PORT}")
        params = self.params
        size = packet.size
        # the stack's CPU, booked inline: NetParams rejects a negative cost
        self.cpu.busy_s += params.host_stack_cpu_s + size * params.host_per_byte_cpu_s
        self.packets_sent += 1
        self.bytes_sent += size
        self.sim.call_later(params.host_stack_delay_s, channel.send, packet)

    def make_packet(
        self,
        dst_ip: IPv4Addr,
        *,
        proto: str = "tcp",
        sport: int = 0,
        dport: int = 0,
        payload: Any = None,
        payload_size: int = 0,
        dst_mac: Optional[MacAddr] = None,
        mpls: Optional[int] = None,
    ) -> Packet:
        """Build a packet originating from this host."""
        return Packet(
            eth_src=self.mac,
            eth_dst=dst_mac if dst_mac is not None else _BROADCAST_MAC,
            ip_src=self.ip,
            ip_dst=dst_ip,
            proto=proto,
            sport=sport,
            dport=dport,
            payload=payload,
            payload_size=payload_size,
            mpls=mpls,
            uid=next(self._uids),
            content_tag=next(self._tags),
            created_at=self.sim.now,
        )

    # -- receiving ----------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        """NIC entry point: demux or drop a delivered packet."""
        # the integers, as the lookup cache keys them: no dataclass __eq__
        if packet.ip_dst.value != self.ip.value and not self.promiscuous:
            # Not ours: a NIC without promiscuous mode discards it.  Decoy
            # packets from partial multicast die exactly this way when they
            # reach an innocent host instead of a dropping next-hop rule.
            return
        params = self.params
        size = packet.size
        # the stack's CPU, booked inline: NetParams rejects a negative cost
        self.cpu.busy_s += params.host_stack_cpu_s + size * params.host_per_byte_cpu_s
        self.packets_received += 1
        self.bytes_received += size
        self.sim.call_later(params.host_stack_delay_s, self._dispatch, packet)

    def _dispatch(self, packet: Packet) -> None:
        handler = self._bindings.get((packet.proto, packet.dport))
        if handler is not None:
            handler(self, packet)
        elif self.default_handler is not None:
            self.default_handler(self, packet)
        else:
            # nothing bound and no default handler: the stack refuses it
            self.packets_refused += 1
