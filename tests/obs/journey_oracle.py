"""The journey recorder as it was before the one-sink hook path, kept as
the differential test oracle (``test_journey_oracle.py``).

``JourneyRecorder`` below is that recorder verbatim: every hook re-checks
sampling, ``_emit`` builds the row and asks ``wants`` again, the flight
recorder is fed through ``FlightRecorder.observe``, and the switch builds
the pre-rewrite header a second time through ``pre_apply`` at
classification.  Three small pieces let it run on today's data plane:

* :class:`OracleFlightRecorder` puts back ``observe`` and its trigger check,
  verbatim but for the rings' public name;
* :func:`old_classify` is ``Switch._classify`` as it was (it ignores the
  carried ingress header and calls ``pre_apply``), bound per switch by
  :func:`attach_oracle`;
* :class:`OracleRecorder` accepts the ``size`` argument ``Channel.send``
  now passes to ``on_link_tx``, and keeps the old profiler recipe: the
  differential harness calls its ``set_profiler`` directly.
"""

import types
import zlib
from collections import deque
from typing import Any, Callable, Optional

from repro.net.switch import _FWD_KEYS, _MISS_KEYS, _UID_KEYS
from repro.obs.flight import _TRIGGERS_BY_NAME, FlightDump, FlightRecorder
from repro.obs.journey import (
    _EVENTS_BY_KIND,
    _KIND,
    _TAG,
    _WHERE,
    HeaderTuple,
    Journey,
    header_tuple,
    row_column,
)

_TIME = 0
_BACKLOG_AT = row_column("link.tx", "backlog_bytes")


class OracleFlightRecorder(FlightRecorder):
    """A flight recorder fed one row at a time through ``observe``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: kinds that can fire an armed trigger (fast membership test)
        self._armed_kinds = {
            _TRIGGERS_BY_NAME[n].event_kind: n for n in self.triggers
        }

    def observe(self, row: tuple) -> None:
        """Ring-buffer one journey row, then check anomaly triggers."""
        ring = self.rings.get(row[_WHERE])
        if ring is None:
            ring = self.rings[row[_WHERE]] = deque(maxlen=self.capacity)
        ring.append(row)
        trigger = self._armed_kinds.get(row[_KIND])
        if trigger is None:
            return
        if trigger == "queue_depth":
            threshold = self.queue_threshold_bytes
            if threshold is None or row[_BACKLOG_AT] < threshold:
                return
        self._dump(trigger, row)

    def _dump(self, trigger: str, cause: tuple) -> None:
        if len(self.dumps) >= self.max_dumps:
            self.dumps_suppressed += 1
            return
        self.dumps.append(
            FlightDump(
                time_s=cause[_TIME],
                trigger=trigger,
                cause_row=cause,
                rows={w: tuple(r) for w, r in self.rings.items()},
            )
        )


# each hook's field names: the contract table's own tuples, shared by every
# row of the kind
_HOST_TX = _EVENTS_BY_KIND["host.tx"].fields
_SWITCH_INGRESS = _EVENTS_BY_KIND["switch.ingress"].fields
_SWITCH_REWRITE = _EVENTS_BY_KIND["switch.rewrite"].fields
_SWITCH_DIVERGENCE = _EVENTS_BY_KIND["switch.divergence"].fields
_SWITCH_EGRESS = _EVENTS_BY_KIND["switch.egress"].fields
_SWITCH_MISS = _EVENTS_BY_KIND["switch.miss"].fields
_SWITCH_TTL_EXPIRED = _EVENTS_BY_KIND["switch.ttl_expired"].fields
_LINK_TX = _EVENTS_BY_KIND["link.tx"].fields
_LINK_DROP = _EVENTS_BY_KIND["link.drop"].fields
_LINK_DOWN = _EVENTS_BY_KIND["link.down"].fields
_HOST_RX = _EVENTS_BY_KIND["host.rx"].fields
_HOST_FOREIGN_DROP = _EVENTS_BY_KIND["host.foreign_drop"].fields

#: per-flow sampling predicate: called once per content tag with the first
#: packet seen carrying it
SamplePredicate = Callable[["Packet"], bool]


class JourneyRecorder:
    """Hop-by-hop packet tracing wired into a live :class:`Network`.

    Attach with :meth:`attach` (or ``deploy_mic(journey=True)`` /
    ``Testbed.create(journey=True)``).  Sampling is decided once per
    ``content_tag`` — by ``predicate`` when given, else by a deterministic
    hash of the tag against ``sample_rate`` — so every copy of a multicast
    packet inherits the original's decision and full-fidelity tracing stays
    opt-in.  An armed :class:`~repro.obs.flight.FlightRecorder` sees every
    event regardless of sampling (bounded ring buffers, dump on anomaly).
    """

    def __init__(
        self,
        net: "Network",
        sample_rate: float = 1.0,
        predicate: Optional[SamplePredicate] = None,
        flight: Optional["FlightRecorder"] = None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate {sample_rate} out of [0, 1]")
        self.net = net
        self.sim = net.sim
        self.sample_rate = sample_rate
        self.predicate = predicate
        self.flight = flight
        if flight is not None:
            flight.bind(self)
        #: content_tag -> sampled?  Memoised only where the answer can vary
        #: by tag (a predicate, or a hashed rate strictly inside (0, 1)).
        self._decisions: dict[int, bool] = {}
        #: every sampled event row, in recording order; grouped by content
        #: tag when read (journeys_by_content_tag)
        self._rows: list[tuple] = []
        #: (switch, in-tuple) -> MC-planned out-tuple, armed by arm_intent()
        self._intent: dict[tuple[str, HeaderTuple], HeaderTuple] = {}
        self._intent_armed = False
        self.events_recorded = 0
        #: opt-in self-profiler (repro.obs.prof.Profiler); None = off and
        #: the _emit hook is statically dead.
        self._prof = None

    @property
    def never_records(self) -> bool:
        """Statically dead: rate 0, no predicate, no flight recorder.

        Nothing this recorder could ever observe is retained (the sampling
        decision is "no" for every tag and there is no ring buffer to feed),
        so :meth:`attach` leaves the hot-path hooks unset entirely — the
        disabled default costs zero, not merely little.
        """
        return (
            self.flight is None
            and self.predicate is None
            and self.sample_rate <= 0.0
        )

    # -- construction -------------------------------------------------------
    @classmethod
    def attach(
        cls,
        net: "Network",
        *,
        sample_rate: float = 1.0,
        predicate: Optional[SamplePredicate] = None,
        flight: Optional["FlightRecorder"] = None,
    ) -> "JourneyRecorder":
        """Create a recorder and hook every switch, host, and channel.

        A statically dead configuration (:attr:`never_records`) installs no
        hooks: the data plane keeps its bare ``is None`` checks and pays
        nothing.
        """
        rec = cls(net, sample_rate=sample_rate, predicate=predicate, flight=flight)
        if rec.never_records:
            return rec
        for sw in net.switches():
            sw.journey = rec
        for host in net.hosts():
            host.journey = rec
        for link in net.links:
            link.forward.journey = rec
            link.reverse.journey = rec
        net.journey = rec
        return rec

    def detach(self) -> None:
        """Unhook from the network (recording stops immediately)."""
        for sw in self.net.switches():
            if getattr(sw, "journey", None) is self:
                sw.journey = None
        for host in self.net.hosts():
            if getattr(host, "journey", None) is self:
                host.journey = None
        for link in self.net.links:
            for ch in (link.forward, link.reverse):
                if getattr(ch, "journey", None) is self:
                    ch.journey = None
        if self.net.journey is self:
            self.net.journey = None

    # -- sampling -----------------------------------------------------------
    def wants(self, packet: "Packet") -> bool:
        """Sampling decision for this packet's content tag.

        All-or-nothing rates without a predicate are answered directly; a
        predicate (called once per tag) or a hashed rate is memoised.
        """
        if self.predicate is None:
            if self.sample_rate >= 1.0:
                return True
            if self.sample_rate <= 0.0:
                return False
        tag = packet.content_tag
        decided = self._decisions.get(tag)
        if decided is None:
            if self.predicate is not None:
                decided = bool(self.predicate(packet))
            else:
                # Deterministic, RNG-free: hash the tag into [0, 1).
                h = zlib.crc32(tag.to_bytes(8, "little")) / 0x1_0000_0000
                decided = h < self.sample_rate
            self._decisions[tag] = decided
        return decided

    def _active(self, packet: "Packet") -> bool:
        """True when this packet should generate events at all."""
        return self.flight is not None or self.wants(packet)

    def _emit(
        self, kind: str, where: str, packet: "Packet",
        keys: tuple[str, ...], *values: Any,
    ) -> None:
        prof = self._prof
        if prof is not None:
            prof.enter("obs.hook")
            prof.count("obs.hook", "journey_emit")
        try:
            row = (
                self.sim.now, kind, where, packet.uid, packet.content_tag,
                keys, *values,
            )
            self.events_recorded += 1
            if self.wants(packet):
                self._rows.append(row)
            if self.flight is not None:
                self.flight.observe(row)
        finally:
            if prof is not None:
                prof.exit()

    # -- intent (the MC's planned rewrite chains) ---------------------------
    def arm_intent(self, mic: "MimicController") -> int:
        """Load the MC's planned per-MN rewrites for divergence checking.

        For every live channel, both directions of every m-flow contribute
        one ``(switch, in-tuple) → out-tuple`` expectation per Mimic Node.
        Re-arm after establishing or repairing channels.  Returns the number
        of expectations loaded.
        """
        self._intent.clear()
        for channel in mic.channels.values():
            for plan in channel.flows:
                self._arm_direction(plan.walk, plan.mn_positions, plan.fwd_addrs)
                rev_positions = sorted(
                    len(plan.walk) - 1 - p for p in plan.mn_positions
                )
                self._arm_direction(
                    list(reversed(plan.walk)), rev_positions, plan.rev_addrs
                )
        self._intent_armed = True
        return len(self._intent)

    def expect(
        self, switch: str, in_header: HeaderTuple, out_header: HeaderTuple
    ) -> None:
        """Add one intent expectation by hand (and arm divergence checking).

        :meth:`arm_intent` loads these from the MC's plans; this is the
        scripted-scenario escape hatch for topologies without a MIC app.
        """
        self._intent[(switch, in_header)] = out_header
        self._intent_armed = True

    def _arm_direction(self, walk, mn_positions, addrs) -> None:
        for i, pos in enumerate(mn_positions):
            a_in, a_out = addrs[i], addrs[i + 1]
            key = (
                walk[pos],
                (str(a_in.src_ip), str(a_in.dst_ip), a_in.sport, a_in.dport,
                 a_in.mpls),
            )
            self._intent[key] = (
                str(a_out.src_ip), str(a_out.dst_ip), a_out.sport, a_out.dport,
                a_out.mpls,
            )

    # -- hot-path hooks (each guarded by an `is None` check at the caller) --
    def on_host_tx(self, host: "Host", packet: "Packet") -> None:
        """The origin host pushed a packet into its stack."""
        if self._active(packet):
            self._emit(
                "host.tx", host.name, packet, _HOST_TX,
                packet.ip_dst.text, packet.size,
            )

    def on_switch_ingress(
        self, switch: "Switch", packet: "Packet", in_port: int
    ) -> None:
        """A switch received a packet (pre-pipeline)."""
        if self._active(packet):
            self._emit(
                "switch.ingress", switch.name, packet, _SWITCH_INGRESS,
                in_port, header_tuple(packet), packet.size,
            )

    def pre_apply(self, packet: "Packet") -> Optional[HeaderTuple]:
        """Capture the pre-rewrite header tuple, or None when not tracing."""
        if self._active(packet):
            return header_tuple(packet)
        return None

    def on_switch_applied(
        self,
        switch: "Switch",
        packet: "Packet",
        in_port: int,
        entry: "FlowEntry",
        old: HeaderTuple,
        emissions: list[tuple[int, "Packet"]],
    ) -> None:
        """The pipeline matched ``entry`` and produced ``emissions``."""
        new = header_tuple(packet)
        if new != old:
            self._emit(
                "switch.rewrite", switch.name, packet, _SWITCH_REWRITE,
                in_port, entry.entry_id, entry.cookie, old, new,
            )
        emitted = [header_tuple(p) for _port, p in emissions]
        if self._intent_armed:
            expected = self._intent.get((switch.name, old))
            if expected is not None and expected not in emitted:
                self._emit(
                    "switch.divergence", switch.name, packet, _SWITCH_DIVERGENCE,
                    in_port, entry.entry_id, entry.cookie, old, expected,
                    emitted,
                )
        for (port, out_pkt), header in zip(emissions, emitted):
            self._emit(
                "switch.egress", switch.name, out_pkt, _SWITCH_EGRESS,
                port, packet.uid, entry.entry_id, header, out_pkt.size,
            )

    def on_switch_miss(
        self, switch: "Switch", packet: "Packet", in_port: int
    ) -> None:
        """No rule matched; the packet is being punted."""
        if self._active(packet):
            self._emit(
                "switch.miss", switch.name, packet, _SWITCH_MISS,
                in_port, header_tuple(packet),
            )

    def on_ttl_expired(
        self, switch: "Switch", packet: "Packet", in_port: int
    ) -> None:
        """The packet died of TTL in this switch's pipeline."""
        if self._active(packet):
            self._emit(
                "switch.ttl_expired", switch.name, packet, _SWITCH_TTL_EXPIRED,
                in_port,
            )

    def on_link_tx(
        self,
        channel: "Channel",
        packet: "Packet",
        queue_wait_s: float,
        serialize_s: float,
        backlog_bytes: int,
    ) -> None:
        """A channel accepted the packet for transmission."""
        if self._active(packet):
            self._emit(
                "link.tx", channel.name, packet, _LINK_TX,
                queue_wait_s, serialize_s, channel.delay_s, backlog_bytes,
                packet.size,
            )

    def on_link_drop(
        self, channel: "Channel", packet: "Packet", backlog_bytes: int
    ) -> None:
        """A channel tail-dropped the packet."""
        if self._active(packet):
            self._emit(
                "link.drop", channel.name, packet, _LINK_DROP,
                backlog_bytes, packet.size,
            )

    def on_link_state(self, channel: "Channel", up: bool) -> None:
        """A directed channel was administratively brought down.

        Not packet-scoped: the event carries uid 0 and content tag 0 and
        feeds only the flight recorder (there is no journey to append to) —
        it exists so an armed ``link_down`` trigger snapshots the traffic
        leading up to the failure.
        """
        if self.flight is None:
            return
        self.events_recorded += 1
        self.flight.observe(
            (self.sim.now, "link.down", channel.name, 0, 0, _LINK_DOWN, up)
        )

    def on_host_rx(self, host: "Host", packet: "Packet") -> None:
        """The destination NIC accepted the packet."""
        if self._active(packet):
            self._emit(
                "host.rx", host.name, packet, _HOST_RX,
                packet.ip_src.text, self.sim.now - packet.created_at,
                packet.size,
            )

    def on_host_foreign_drop(self, host: "Host", packet: "Packet") -> None:
        """A NIC discarded a packet not addressed to it (decoy death)."""
        if self._active(packet):
            self._emit(
                "host.foreign_drop", host.name, packet, _HOST_FOREIGN_DROP,
                packet.ip_dst.text,
            )

    # -- queries (the ground-truth linkage API) -----------------------------
    def journeys_by_content_tag(self) -> dict[int, Journey]:
        """Every sampled journey, keyed by content tag — the exact-linkage
        ground truth :mod:`repro.attacks` scores adversaries against."""
        grouped: dict[int, list[tuple]] = {}
        for row in self._rows:
            grouped.setdefault(row[_TAG], []).append(row)
        return {tag: Journey(tag, rows) for tag, rows in grouped.items()}

    def journey(self, content_tag: int) -> Journey:
        """One journey by tag (KeyError if never sampled)."""
        return self.journeys_by_content_tag()[content_tag]

    def __len__(self) -> int:
        return len({row[_TAG] for row in self._rows})


class OracleRecorder(JourneyRecorder):
    """The verbatim recorder, taking today's hook arguments."""

    def on_link_tx(self, channel, packet, queue_wait_s, serialize_s,
                   backlog_bytes, size=None):
        super().on_link_tx(channel, packet, queue_wait_s, serialize_s, backlog_bytes)

    def set_profiler(self, prof) -> None:
        self._prof = prof


def old_classify(self, packet, in_port, resolved, resolved_version, header=None):
    """``Switch._classify`` before the ingress header was carried to it."""
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
        if self.journey is not None:
            self.journey.on_ttl_expired(self, packet, in_port)
        return
    pre = self.journey.pre_apply(packet) if self.journey is not None else None
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
        if self.journey is not None:
            self.journey.on_switch_miss(self, packet, in_port)
        self._punt(packet, in_port)
        return
    entry.last_hit_s = now
    if pre is not None:
        self.journey.on_switch_applied(
            self, packet, in_port, entry, pre, emissions
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


def attach_oracle(net, **kwargs) -> OracleRecorder:
    """Attach the oracle recorder and give every switch the old pipeline."""
    for sw in net.switches():
        sw._classify = types.MethodType(old_classify, sw)
    return OracleRecorder.attach(net, **kwargs)
