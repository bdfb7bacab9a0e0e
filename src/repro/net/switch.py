"""SDN switch node.

The data path: receive → pipeline delay (plus a per-rewrite surcharge so
MIC's extra set-field "actions" cost something, per Sec VI-B) → flow-table
classification → emit / punt.  Table misses are punted to the controller,
OVS-style, through the control channel the controller registers at
connection time.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator
from .flowtable import FlowEntry, FlowTable, TableFullError
from .node import Node
from .packet import Packet
from .params import NetParams

__all__ = ["Switch", "SwitchDownError"]

# trace field names, one shared tuple per record shape (see repro.sim.trace)
_UID_KEYS = ("uid",)
_MISS_KEYS = ("uid", "src_ip", "dst_ip")
_FWD_KEYS = (
    "uid", "content_tag", "in_port", "out_port", "src_ip", "dst_ip", "mpls", "size",
)
_ENTRY_KEYS = ("entry",)


class SwitchDownError(RuntimeError):
    """A flow-mod reached a switch whose chassis is down (crashed)."""

#: callback type the controller registers: (switch, packet, in_port) -> None
PacketInHandler = Callable[["Switch", Packet, int], None]


class Switch(Node):
    """An OpenFlow switch with one flow table and a group table."""

    kind = "switch"

    def __init__(self, sim: Simulator, name: str, params: NetParams):
        super().__init__(sim, name, params)
        self.table = FlowTable(max_entries=params.switch_table_capacity, ids=sim.ids)
        self._packet_in: Optional[PacketInHandler] = None
        self.mirror_taps: list[Callable[[Packet, int, str], None]] = []
        self.packets_forwarded = 0
        self.packets_punted = 0
        #: False while the switch is crashed: the table is wiped, arriving
        #: packets blackhole, and nothing is punted to the controller
        self.alive = True
        self.crashes = 0
        self.packets_dropped_dead = 0

    # -- controller wiring -------------------------------------------------
    def connect_controller(self, handler: PacketInHandler) -> None:
        """Register the controller's packet-in handler."""
        self._packet_in = handler

    # -- observation (the adversary's port-mirroring hook, Sec III-B) ------
    def add_mirror_tap(self, tap: Callable[[Packet, int, str], None]) -> None:
        """Register a tap invoked as ``tap(packet, port, direction)`` with
        direction ``"in"`` or ``"out"`` — models a compromised switch or an
        enabled mirror port feeding an IDS."""
        self.mirror_taps.append(tap)

    def _mirror(self, packet: Packet, port: int, direction: str) -> None:
        for tap in self.mirror_taps:
            tap(packet, port, direction)

    # -- crash / reboot ------------------------------------------------------
    def crash(self) -> int:
        """Lose all volatile state: flow table, group table, lookup cache.

        Models a switch reboot's blackout phase — the chassis is dead until
        :meth:`reboot`, so packets arriving meanwhile are dropped on the
        floor and nothing reaches the controller.  Returns the number of
        flow entries lost.
        """
        self.alive = False
        self.crashes += 1
        return self.table.clear()

    def reboot(self) -> None:
        """Come back up with empty tables (the controller re-syncs rules)."""
        self.alive = True

    # -- data path -----------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        """Data-path entry: mirror, classify, book the CPU, then the
        pipeline delay."""
        if not self.alive:
            self.packets_dropped_dead += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "switch.dead_drop", self.name, _UID_KEYS,
                    packet.uid,
                )
            return
        if self.mirror_taps:
            self._mirror(packet, in_port, "in")
        # the journey's ingress header rides to _classify as the hop's
        # pre-rewrite header (None: this hop records nothing)
        header = None
        if self.journey is not None:
            header = self.journey.on_switch_ingress(self, packet, in_port)
        table = self.table
        params = self.params
        entry = table.lookup(packet, in_port)
        rewrites = entry.rewrite_count if entry else 0
        # CpuMeter.consume, inlined: NetParams rejects a negative cost
        self.cpu.busy_s += (
            params.switch_forward_cpu_s + rewrites * params.setfield_cpu_s
        )
        # The entry rides along with the table version it was resolved at:
        # the one classification of this hop, unless the table changes
        # during the pipeline delay.
        self.sim.call_later(
            params.switch_forward_delay_s + rewrites * params.setfield_delay_s,
            self._classify, packet, in_port, entry, table.version, header,
        )

    def _classify(
        self,
        packet: Packet,
        in_port: int,
        resolved: Optional[FlowEntry],
        resolved_version: int,
        header: Optional[tuple],
    ) -> None:
        if not self.alive:
            # Crashed mid-pipeline: the packet dies with the chassis.
            self.packets_dropped_dead += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "switch.dead_drop", self.name, _UID_KEYS,
                    packet.uid,
                )
            return
        now = self.sim.now
        packet.ttl -= 1
        if packet.ttl <= 0:
            if self.trace is not None:
                self.trace.emit(
                    now, "switch.ttl_expired", self.name, _UID_KEYS, packet.uid
                )
            if header is not None and self.journey is not None:
                self.journey.on_ttl_expired(self, packet, in_port)
            return
        emissions, to_controller, entry = self.table.apply(
            packet, in_port, resolved, resolved_version
        )
        if entry is None:
            self.packets_punted += 1
            if self.trace is not None:
                self.trace.emit(
                    now, "switch.miss", self.name, _MISS_KEYS,
                    packet.uid, packet.ip_src.text, packet.ip_dst.text,
                )
            if header is not None and self.journey is not None:
                self.journey.on_switch_miss(self, packet, in_port, header)
            self._punt(packet, in_port)
            return
        entry.last_hit_s = now
        # A header means the ingress was recorded; the journey may have
        # been detached during the pipeline delay since.
        if header is not None and self.journey is not None:
            self.journey.on_switch_applied(
                self, packet, in_port, entry, header, emissions
            )
        if to_controller:
            self._punt(packet, in_port)
        for port, out_pkt in emissions:
            self.packets_forwarded += 1
            if self.mirror_taps:
                self._mirror(out_pkt, port, "out")
            if self.trace is not None:
                self.trace.emit(
                    now, "switch.fwd", self.name, _FWD_KEYS,
                    out_pkt.uid, out_pkt.content_tag, in_port, port,
                    out_pkt.ip_src.text, out_pkt.ip_dst.text, out_pkt.mpls,
                    out_pkt.size,
                )
            # Node.transmit, inlined: one frame per emission
            channel = self.ports.get(port)
            if channel is None:
                raise ValueError(f"{self.name}: no channel on port {port}")
            channel.send(out_pkt)

    def _punt(self, packet: Packet, in_port: int) -> None:
        if self._packet_in is None or not self.alive:
            return  # no controller (or a dead one's chassis): drop
        self.sim.call_later(
            self.params.packet_in_delay_s, self._packet_in, self, packet, in_port
        )

    # -- controller-side management (flow-mod with install latency) ----------
    def install_later(self, entry, delay: Optional[float] = None):
        """Install a flow entry after the control-channel latency.

        Returns an event that fires when the rule is active.
        """
        return self.install_many_later((entry,), delay)

    def install_many_later(self, entries, delay: Optional[float] = None, groups=()):
        """Install one bundle — groups, then flow entries — after one
        control-channel latency.

        Models a batched flow-mod: the groups and rules become active in the
        same callback (a rule can never be live before the group it points
        at), each rule feeding the table's classification index
        incrementally, and the lookup cache is invalidated once per batch
        rather than per rule.  Emits one ``switch.flowmod`` trace record per
        entry while a trace log is attached.  On a capacity overflow the event fails after installing the
        groups and the entries that fit — the same observable state as
        issuing the installs one by one; a down switch applies nothing.

        Returns an event that fires when the whole bundle is active.
        """
        d = self.params.flow_install_delay_s if delay is None else delay
        ev = self.sim.event()
        self.sim.call_later(d, self._install_now, entries, groups, ev)
        return ev

    def _install_now(self, entries, groups, ev) -> None:
        if not self.alive:
            ev.fail(SwitchDownError(f"{self.name} is down"))
            return
        for group in groups:
            self.table.install_group(group)
        for entry in entries:
            try:
                self.table.install(entry)
            except TableFullError as exc:
                if self.trace is not None:
                    self.trace.emit(
                        self.sim.now, "switch.table_full", self.name,
                        _ENTRY_KEYS, entry.describe(),
                    )
                ev.fail(exc)
                return
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "switch.flowmod", self.name,
                    _ENTRY_KEYS, entry.describe(),
                )
        ev.succeed()
