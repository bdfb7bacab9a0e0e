"""Adversarial observation points (threat model, Sec III-B).

An adversary "can compromise a part of switches … and observe some fraction
of network traffic", e.g. through port mirroring.  :class:`ObservationPoint`
is that capability: attached to a switch, it records every packet the switch
sees, in both directions, with the header fields and content fingerprint an
on-path observer would have.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..net.network import Network
from ..net.packet import Packet

__all__ = [
    "Observation",
    "ObservationPoint",
    "host_outbound",
    "node_vantage",
    "observe_switches",
]


@dataclass(frozen=True)
class Observation:
    """One packet sighting at a compromised switch."""

    time: float
    switch: str
    port: int
    direction: str  # "in" | "out"
    src_ip: str
    dst_ip: str
    sport: int
    dport: int
    mpls: Optional[int]
    size: int
    uid: int
    content_tag: int


class ObservationPoint:
    """A compromised switch (or an enabled mirror port feeding the attacker)."""

    def __init__(self, network: Network, switch_name: str):
        self.network = network
        self.switch_name = switch_name
        self.observations: list[Observation] = []
        network.switch(switch_name).add_mirror_tap(self._tap)

    def _tap(self, packet: Packet, port: int, direction: str) -> None:
        self.observations.append(
            Observation(
                time=self.network.sim.now,
                switch=self.switch_name,
                port=port,
                direction=direction,
                src_ip=packet.ip_src.text,
                dst_ip=packet.ip_dst.text,
                sport=packet.sport,
                dport=packet.dport,
                mpls=packet.mpls,
                size=packet.size,
                uid=packet.uid,
                content_tag=packet.content_tag,
            )
        )

    # -- adversary-side queries -------------------------------------------
    def ingress(self) -> list[Observation]:
        """All packets observed entering the switch."""
        return [o for o in self.observations if o.direction == "in"]

    def egress(self) -> list[Observation]:
        """All packets observed leaving the switch."""
        return [o for o in self.observations if o.direction == "out"]

    def clear(self) -> None:
        """Forget everything observed so far."""
        self.observations.clear()


def observe_switches(network: Network, switch_names) -> dict[str, ObservationPoint]:
    """Compromise several switches at once."""
    return {name: ObservationPoint(network, name) for name in switch_names}


def node_vantage(point: ObservationPoint, node_ip: str) -> ObservationPoint:
    """Project a switch's log onto one attached node.

    Packets addressed *to* ``node_ip`` become the node's ingress; packets
    sourced *from* it become its egress.  This is how an observer at an edge
    switch reasons about the transformation a host (e.g. a Tor relay)
    applies: what goes in vs. what comes back out.
    """
    projected = ObservationPoint.__new__(ObservationPoint)
    projected.network = point.network
    projected.switch_name = f"{point.switch_name}@{node_ip}"
    projected.observations = []
    for obs in point.observations:
        if obs.direction != "out":
            continue  # count each packet once (on its way out of the switch)
        if obs.dst_ip == node_ip:
            projected.observations.append(replace(obs, direction="in"))
        elif obs.src_ip == node_ip:
            projected.observations.append(obs)
    return projected


def host_outbound(point: ObservationPoint, node_ip: str) -> ObservationPoint:
    """Project an edge-switch tap onto what one attached host *sends*.

    Packets entering the switch sourced from ``node_ip`` become the
    projection's ingress — the view a mirror on the host's access port
    gives an attacker sizing up that host's outbound traffic before any
    MN has rewritten it.
    """
    projected = ObservationPoint.__new__(ObservationPoint)
    projected.network = point.network
    projected.switch_name = f"{point.switch_name}<-{node_ip}"
    projected.observations = [
        obs
        for obs in point.observations
        if obs.direction == "in" and obs.src_ip == node_ip
    ]
    return projected
