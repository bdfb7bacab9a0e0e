"""Event-driven link model.

A :class:`Link` joins two node ports with a full-duplex pair of directed
channels.  Each direction serializes packets at the link bandwidth, applies
propagation delay, and drops when the transmit backlog exceeds the queue
budget — all without a dedicated process per link: the channel keeps a
"transmitter free at" watermark and schedules one delivery event per packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sim import Simulator
from .packet import Packet
from .params import NetParams

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["Channel", "Link", "LinkStats"]


@dataclass
class LinkStats:
    """Per-direction counters."""

    packets: int = 0
    bytes: int = 0
    drops: int = 0


class Channel:
    """One direction of a link: src node/port → dst node/port."""

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        src_port: int,
        dst: "Node",
        dst_port: int,
        bandwidth_bps: float,
        delay_s: float,
        queue_bytes: int,
    ):
        self.sim = sim
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue_bytes = queue_bytes
        #: directed link label, e.g. ``a[1]->b[2]`` — every recorded row of
        #: the channel carries it, so it is rendered once, here
        self.name = f"{src.name}[{src_port}]->{dst.name}[{dst_port}]"
        self.stats = LinkStats()
        self._tx_free_at = 0.0
        self.up = True
        #: fluid background load published by repro.net.hybrid each epoch;
        #: 0.0 keeps the packet hot path byte-identical to a bare engine
        self.fluid_load_bps = 0.0

    def queue_ahead(self) -> tuple[float, float, int]:
        """What a packet arriving now meets: the bandwidth it serializes at,
        its queue wait and the bytes queued ahead of it.

        The hybrid hand-off contract (docs/scale.md): fluid background load
        debits the bandwidth packets serialize at, floored at 1% of capacity
        so packet traffic is never fully starved.  With no fluid load the
        branch is untaken and the arithmetic identical to a bare engine.
        """
        bandwidth = self.bandwidth_bps
        fluid = self.fluid_load_bps
        if fluid:
            bandwidth = max(bandwidth - fluid, bandwidth * 0.01)
        pending_s = self._tx_free_at - self.sim.now
        wait_s = pending_s if pending_s > 0.0 else 0.0
        return bandwidth, wait_s, int(wait_s * bandwidth / 8.0)

    def effective_bandwidth_bps(self) -> float:
        """Serialization bandwidth left for packet-level traffic."""
        return self.queue_ahead()[0]

    def backlog_bytes(self) -> int:
        """Bytes currently queued ahead of a new arrival."""
        return self.queue_ahead()[2]

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission; False means tail-dropped."""
        now = self.sim.now
        size = packet.size
        # queue_ahead()'s expressions, term for term, with no call: one read
        # of the bandwidth serves the queue check and the serialization time
        bandwidth = self.bandwidth_bps
        fluid = self.fluid_load_bps
        if fluid:
            bandwidth = max(bandwidth - fluid, bandwidth * 0.01)
        free_at = self._tx_free_at
        pending_s = free_at - now
        backlog = int((pending_s if pending_s > 0.0 else 0.0) * bandwidth / 8.0)
        if not self.up or backlog + size > self.queue_bytes:
            self.stats.drops += 1
            return False
        tx_time = size * 8.0 / bandwidth
        start = free_at if free_at > now else now
        self._tx_free_at = free_at = start + tx_time
        self.stats.packets += 1
        self.stats.bytes += size
        self.sim.call_at(free_at + self.delay_s, self._deliver, packet)
        return True

    def _deliver(self, packet: Packet) -> None:
        if not self.up:
            # The link went down while the packet was in flight (serializing
            # or propagating): it is lost, and the loss must be visible —
            # silently returning here would leave drops uncounted.
            self.stats.drops += 1
            return
        self.dst.receive(packet, self.dst_port)

    def set_state(self, up: bool) -> None:
        """Administratively flip this direction's state."""
        self.up = up


class Link:
    """Full-duplex link: a pair of mirrored :class:`Channel` objects."""

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        a_port: int,
        b: "Node",
        b_port: int,
        params: NetParams,
        bandwidth_bps: Optional[float] = None,
        delay_s: Optional[float] = None,
    ):
        bw = bandwidth_bps if bandwidth_bps is not None else params.link_bandwidth_bps
        delay = delay_s if delay_s is not None else params.link_delay_s
        self.forward = Channel(
            sim, a, a_port, b, b_port, bw, delay, params.link_queue_bytes
        )
        self.reverse = Channel(
            sim, b, b_port, a, a_port, bw, delay, params.link_queue_bytes
        )
        a.attach(a_port, self.forward)
        b.attach(b_port, self.reverse)

    def set_up(self, up: bool) -> None:
        """Bring both directions up or down."""
        self.forward.set_state(up)
        self.reverse.set_state(up)

    @property
    def endpoints(self) -> tuple[str, str]:
        """The two node names this link joins."""
        return (self.forward.src.name, self.forward.dst.name)
