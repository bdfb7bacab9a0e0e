"""Mimic channel and m-flow state objects.

A *mimic channel* (Sec III-A) is the anonymous conduit between an initiator
and a responder.  It consists of one or more *m-flows*, each with its own
walk through the fabric, its own Mimic Nodes, and its own per-segment
m-addresses.  These dataclasses are the MC's bookkeeping; the controller
compiles them into switch rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.addresses import IPv4Addr
from .collision import MAddress

__all__ = ["MFlowPlan", "MimicChannel", "FlowGrant", "ChannelGrant"]

@dataclass
class MFlowPlan:
    """Everything the MC decided for one m-flow (one direction pair)."""

    flow_id: int
    walk: list[str]  # [initiator, s…, responder]; may revisit switches
    mn_positions: list[int]  # indices into walk (switch visits that rewrite)
    fwd_addrs: list[MAddress]  # N+1 segment addresses, fwd_addrs[0] = entry
    rev_addrs: list[MAddress]  # mirrored for the reply direction
    cookie: int
    proto: str = "tcp"  # transport the rules match ("tcp" | "udp")
    #: extra simultaneous entry addresses (FRVM-style multiplexing); drawn
    #: by the anonymity strategy's ``finish_plan`` hook, empty for MIC
    aliases: tuple = ()

    @property
    def mn_names(self) -> list[str]:
        """The switches acting as MNs, in path order."""
        return [self.walk[p] for p in self.mn_positions]

    @property
    def entry(self) -> MAddress:
        """The initiator-facing segment address (A[0])."""
        return self.fwd_addrs[0]

    @property
    def delivery(self) -> MAddress:
        """The responder-facing segment address (A[N])."""
        return self.fwd_addrs[-1]


@dataclass
class MimicChannel:
    """Live channel state held by the MC."""

    channel_id: int
    initiator: str  # host name
    responder: str  # host name
    flows: list[MFlowPlan]
    created_at: float
    last_activity: float
    state: str = "established"  # "established" | "closed"
    decoys: int = 0

    @property
    def flow_count(self) -> int:
        """Number of m-flows in this channel."""
        return len(self.flows)

    def touch(self, now: float) -> None:
        """Record channel activity at ``now``."""
        self.last_activity = now

    def idle_for(self, now: float) -> float:
        """Seconds since the last recorded activity."""
        return now - self.last_activity


@dataclass(frozen=True)
class FlowGrant:
    """What the initiator learns about one m-flow — and nothing more.

    The entry address hides the responder; the assigned source port lets the
    MC pin the full reverse rewrite without kernel changes (the user-end
    module binds it)."""

    entry_ip: IPv4Addr
    entry_port: int
    source_port: int
    #: alternative (alias) entry lanes as ``(ip, port)`` pairs — non-empty
    #: only under multiplexing strategies (FRVM)
    alt_entries: tuple = ()


@dataclass(frozen=True)
class ChannelGrant:
    """The MC's acknowledgement to a channel request."""

    channel_id: int
    flows: tuple[FlowGrant, ...]

    @property
    def flow_count(self) -> int:
        """Number of granted m-flows."""
        return len(self.flows)
