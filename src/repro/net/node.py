"""Base node: ports, transmission, CPU accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sim import Simulator, TraceLog
from .packet import Packet
from .params import NetParams

if TYPE_CHECKING:  # pragma: no cover
    from .link import Channel

__all__ = ["Node", "CpuMeter"]


@dataclass
class CpuMeter:
    """Accumulates CPU-seconds a node spends on packet work and crypto.

    Fig 9(c) reports relative CPU usage; the reproduction books every unit of
    simulated work here and reports ``busy_s`` over a measurement window.
    """

    busy_s: float = 0.0
    window_start: float = 0.0

    def consume(self, seconds: float) -> None:
        """Book CPU-seconds of work computed at run time (crypto, relaying).

        The packet data path adds its per-packet costs to :attr:`busy_s`
        directly: those come from :class:`NetParams`, which rejects a
        negative one at construction.
        """
        if seconds < 0:
            raise ValueError("negative CPU time")
        self.busy_s += seconds

    def reset(self, now: float) -> None:
        """Zero the meter and start a new measurement window."""
        self.busy_s = 0.0
        self.window_start = now

    def utilization(self, now: float, cores: int = 1) -> float:
        """Fraction of one-core-equivalent capacity used since the reset."""
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        return self.busy_s / (elapsed * cores)


class Node:
    """A device with numbered ports attached to link channels."""

    kind = "node"

    def __init__(self, sim: Simulator, name: str, params: NetParams):
        self.sim = sim
        #: the network's attached trace log (None = nothing recorded)
        self.trace: Optional[TraceLog] = None
        self.name = name
        self.params = params
        self.ports: dict[int, "Channel"] = {}
        self.cpu = CpuMeter()
        #: optional attached repro.obs.journey.JourneyRecorder
        self.journey = None

    def attach(self, port: int, channel: "Channel") -> None:
        """Wire a link channel to a port (done by Network)."""
        if port in self.ports:
            raise ValueError(f"{self.name}: port {port} already wired")
        self.ports[port] = channel

    def neighbor(self, port: int) -> Optional[str]:
        """Name of the node on the far end of a port, or None."""
        ch = self.ports.get(port)
        return ch.dst.name if ch else None

    def port_to(self, neighbor_name: str) -> Optional[int]:
        """Local port facing a named neighbor, or None."""
        for port, ch in self.ports.items():
            if ch.dst.name == neighbor_name:
                return port
        return None

    def transmit(self, packet: Packet, port: int) -> bool:
        """Send a packet out of a port; False if tail-dropped."""
        channel = self.ports.get(port)
        if channel is None:
            raise ValueError(f"{self.name}: no channel on port {port}")
        return channel.send(packet)

    def receive(self, packet: Packet, in_port: int) -> None:  # pragma: no cover
        """Handle a delivered packet (subclass responsibility)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} ports={sorted(self.ports)}>"
