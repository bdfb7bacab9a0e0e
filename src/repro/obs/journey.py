"""Per-packet journey tracing: hop-by-hop causal records keyed on identity.

MIC's whole point is that headers lie: once a Mimic Node rewrites
⟨src, dst, mpls⟩, nothing on the wire links the packet's hops.  The journey
recorder follows packets anyway — from the *inside* — keyed on the sim-side
identities that survive rewrites (:attr:`Packet.uid` per instance,
:attr:`Packet.content_tag` per wire content, shared by multicast decoy
copies).  Each hop records ingress port, matched rule, the rewrite applied
(old → new header tuple), queue wait, serialization time, and egress, which
gives three things the trace log cannot:

* **ground truth** for the attack modules — adversary success is scored
  against exact packet linkage instead of heuristics
  (:func:`repro.attacks.correlation.correlate_with_truth`),
* **dynamic rewrite-chain checking** against the MC's installed intent
  (complementing the static proofs in :mod:`repro.analysis`),
* **renderable timelines** — the Perfetto exporter draws per-node tracks
  with rewrite annotations (:mod:`repro.obs.perfetto`).

Observation without perturbation still holds: every hook is a single
``is None`` check on the hot path, the recorder schedules no events, emits
no trace records, and touches no RNG (sampling decisions hash the content
tag), so a traced run's trace log is byte-identical to an untraced one —
even at full sampling.  With ``sample_rate=0``, no predicate and no flight
recorder the configuration is statically dead and :meth:`JourneyRecorder.attach`
installs no hooks at all, so the disabled default costs nothing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import MimicController
    from ..net.flowtable import FlowEntry
    from ..net.host import Host
    from ..net.link import Channel
    from ..net.network import Network
    from ..net.packet import Packet
    from ..net.switch import Switch
    from .flight import FlightRecorder

__all__ = [
    "HeaderTuple",
    "JourneyEvent",
    "Journey",
    "JourneyRecorder",
    "JourneyEventSpec",
    "JOURNEY_EVENTS",
    "journey_event_kinds",
    "format_journey_table",
    "header_tuple",
    "journeys_to_json",
    "format_hop_table",
]

#: the ⟨src_ip, dst_ip, sport, dport, mpls⟩ view of a packet, stringified
#: IPs so tuples compare and serialize stably.
HeaderTuple = tuple[str, str, int, int, Optional[int]]


def header_tuple(packet: "Packet") -> HeaderTuple:
    """The packet's current ⟨src_ip, dst_ip, sport, dport, mpls⟩ tuple."""
    return (
        packet.ip_src.text,
        packet.ip_dst.text,
        packet.sport,
        packet.dport,
        packet.mpls,
    )


# ---------------------------------------------------------------------------
# the event schema (doc-diffed both ways, like the metrics contract)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JourneyEventSpec:
    """One contracted journey event kind: where it fires and what it carries."""

    kind: str
    where: str  # "host" | "switch" | "channel"
    fields: tuple[str, ...]
    fires: str


JOURNEY_EVENTS: tuple[JourneyEventSpec, ...] = (
    JourneyEventSpec(
        "host.tx", "host", ("dst_ip", "size"),
        "the origin host pushes the packet into its protocol stack",
    ),
    JourneyEventSpec(
        "switch.ingress", "switch",
        ("in_port", "header", "size"),
        "a switch receives the packet on a port (before the pipeline delay)",
    ),
    JourneyEventSpec(
        "switch.rewrite", "switch",
        ("in_port", "entry_id", "cookie", "old", "new"),
        "the matched rule rewrote header fields in place (old ≠ new tuple)",
    ),
    JourneyEventSpec(
        "switch.divergence", "switch",
        ("in_port", "entry_id", "cookie", "old", "expected", "emitted"),
        "intent is armed and no emission carries the MC-planned out-tuple "
        "for this hop's in-tuple (rewrite chain diverged from installed intent)",
    ),
    JourneyEventSpec(
        "switch.egress", "switch",
        ("out_port", "parent_uid", "entry_id", "header", "size"),
        "the switch emits one packet copy on an output port; multicast "
        "copies carry fresh uids linked back through parent_uid",
    ),
    JourneyEventSpec(
        "switch.miss", "switch", ("in_port", "header"),
        "no rule matched; the packet is punted to the controller",
    ),
    JourneyEventSpec(
        "switch.ttl_expired", "switch", ("in_port",),
        "the TTL hit zero in the pipeline and the packet died",
    ),
    JourneyEventSpec(
        "link.tx", "channel",
        ("queue_wait_s", "serialize_s", "delay_s", "backlog_bytes", "size"),
        "a directed channel accepts the packet: queue wait behind the "
        "backlog, then serialization at link bandwidth, then propagation",
    ),
    JourneyEventSpec(
        "link.drop", "channel", ("backlog_bytes", "size"),
        "the transmit queue tail-dropped the packet (backlog over budget, "
        "or link down)",
    ),
    JourneyEventSpec(
        "link.down", "channel", ("up",),
        "a directed channel is administratively brought down (link failure "
        "or fault injection); not packet-scoped — uid and content_tag are 0",
    ),
    JourneyEventSpec(
        "host.rx", "host", ("src_ip", "latency_s", "size"),
        "the destination host NIC accepts the packet (end of the journey)",
    ),
    JourneyEventSpec(
        "host.foreign_drop", "host", ("dst_ip",),
        "a NIC discards a packet not addressed to it — how multicast decoy "
        "copies die at innocent hosts",
    ),
)

_EVENTS_BY_KIND = {spec.kind: spec for spec in JOURNEY_EVENTS}


def journey_event_kinds() -> set[str]:
    """The set of every contracted journey event kind."""
    return set(_EVENTS_BY_KIND)


def format_journey_table() -> str:
    """Render the journey event schema as the markdown table the docs embed."""
    lines = [
        "| kind | where | fields | fires when |",
        "|---|---|---|---|",
    ]
    for spec in JOURNEY_EVENTS:
        fields = ", ".join(spec.fields)
        lines.append(f"| `{spec.kind}` | {spec.where} | {fields} | {spec.fires} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# events and journeys
# ---------------------------------------------------------------------------

# A stored event is one flat row
#   (time_s, kind, where, uid, content_tag, keys, *values)
# with ``keys`` the kind's ``fields`` tuple from JOURNEY_EVENTS.  It holds
# scalars, strings and header tuples only, so the collector stops tracking
# it (see repro.sim.trace).  The queries read the columns they need by
# position; a JourneyEvent is built only for callers that ask for events.
_TIME, _KIND, _WHERE, _UID, _TAG, _KEYS, _VALUES = range(7)


def row_column(kind: str, name: str) -> int:
    """Position, in a stored row, of one contracted field of an event kind."""
    return _VALUES + _EVENTS_BY_KIND[kind].fields.index(name)


@dataclass(frozen=True, slots=True)
class JourneyEvent:
    """One hop-level occurrence in a packet's journey."""

    time_s: float
    kind: str
    where: str  # node name, or directed channel name for link.* events
    uid: int
    content_tag: int
    detail: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.detail[key]

    @classmethod
    def from_row(cls, row: tuple) -> "JourneyEvent":
        """Build the event a stored row stands for (see :func:`row_column`)."""
        return cls(
            row[_TIME], row[_KIND], row[_WHERE], row[_UID], row[_TAG],
            dict(zip(row[_KEYS], row[_VALUES:])),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (tuples in detail become lists via json anyway)."""
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "where": self.where,
            "uid": self.uid,
            "content_tag": self.content_tag,
            "detail": dict(self.detail),
        }


_PARENT_UID_AT = row_column("switch.egress", "parent_uid")
_OLD_AT = row_column("switch.rewrite", "old")
_NEW_AT = row_column("switch.rewrite", "new")
_QUEUE_WAIT_AT = row_column("link.tx", "queue_wait_s")
_LATENCY_AT = row_column("host.rx", "latency_s")


class Journey:
    """Every recorded event for one wire content (one ``content_tag``).

    Multicast decoy copies share the tag, so a journey is a *tree*: the
    original instance plus every copy, linked through the ``parent_uid``
    field of ``switch.egress`` events.
    """

    def __init__(self, content_tag: int, rows: list[tuple]):
        self.content_tag = content_tag
        self._rows = rows

    @property
    def events(self) -> list[JourneyEvent]:
        """The journey's events in causal order (built from rows per call)."""
        return [JourneyEvent.from_row(row) for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[JourneyEvent]:
        return map(JourneyEvent.from_row, self._rows)

    def by_kind(self, kind: str) -> list[JourneyEvent]:
        """All events of one kind, in causal order."""
        return [JourneyEvent.from_row(row) for row in self._rows if row[_KIND] == kind]

    def uids(self) -> set[int]:
        """Every packet instance (original + copies) seen in this journey."""
        return {row[_UID] for row in self._rows}

    def origin(self) -> Optional[str]:
        """The sending host, or None if the journey started mid-fabric."""
        for row in self._rows:
            if row[_KIND] == "host.tx":
                return row[_WHERE]
        return None

    def delivered_to(self) -> list[str]:
        """Hosts whose NIC accepted a copy, in delivery order."""
        return [row[_WHERE] for row in self._rows if row[_KIND] == "host.rx"]

    def parent_map(self) -> dict[int, int]:
        """uid → parent uid links from egress events (identity maps to self)."""
        return {
            row[_UID]: row[_PARENT_UID_AT]
            for row in self._rows
            if row[_KIND] == "switch.egress"
        }

    def delivered_uids(self) -> set[int]:
        """Uids on a lineage chain that ends in a ``host.rx`` delivery.

        This is the exact "real copy" label the correlation attack is scored
        against: a decoy copy (dropped next hop or dying at an innocent NIC)
        never appears here, the true continuation always does.
        """
        parents = self.parent_map()
        delivered: set[int] = set()
        for row in self._rows:
            if row[_KIND] != "host.rx":
                continue
            uid = row[_UID]
            while uid not in delivered:
                delivered.add(uid)
                nxt = parents.get(uid, uid)
                if nxt == uid:
                    break
                uid = nxt
        return delivered

    def rewrites(self) -> list[JourneyEvent]:
        """The old→new rewrite events, in hop order."""
        return self.by_kind("switch.rewrite")

    def rewrite_chain(self) -> list[tuple[str, HeaderTuple, HeaderTuple]]:
        """``(switch, old, new)`` per rewriting hop, in causal order."""
        return [
            (row[_WHERE], tuple(row[_OLD_AT]), tuple(row[_NEW_AT]))
            for row in self._rows
            if row[_KIND] == "switch.rewrite"
        ]

    def path(self) -> list[str]:
        """Node names touched by the *delivered* lineage, in hop order."""
        live = self.delivered_uids()
        out: list[str] = []
        for row in self._rows:
            if row[_KIND] in ("host.tx", "switch.ingress", "host.rx") and (
                not live or row[_UID] in live
            ):
                if not out or out[-1] != row[_WHERE]:
                    out.append(row[_WHERE])
        return out

    def queue_waits(self) -> list[tuple[str, float]]:
        """``(channel, queue_wait_s)`` per link transmission, in order."""
        return [
            (row[_WHERE], row[_QUEUE_WAIT_AT])
            for row in self._rows
            if row[_KIND] == "link.tx"
        ]

    def total_latency_s(self) -> Optional[float]:
        """First delivery latency (host.rx event's reading), or None."""
        for row in self._rows:
            if row[_KIND] == "host.rx":
                return row[_LATENCY_AT]
        return None


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------

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

    Each hook builds its row once and hands it to one sink, which counts
    it, keeps it when the tag is sampled and appends it to its location's
    flight ring.  A sampled row's header tuples come from one shared table,
    so retained rows hold one instance per distinct header.  A network
    carries one attached recorder at a time.
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
        #: every tag is kept: the sampling question is answered here, once
        self._keep_all = predicate is None and sample_rate >= 1.0
        #: an armed flight recorder rings every event, sampled or not
        self._watch_all = flight is not None
        self._rings = None
        self._armed: dict[str, str] = {}
        if flight is not None:
            flight.bind(self)
            self._rings = flight.rings
            self._armed = flight.armed_kinds
        #: content_tag -> sampled?  Memoised only where the answer can vary
        #: by tag (a predicate, or a hashed rate strictly inside (0, 1)).
        self._decisions: dict[int, bool] = {}
        #: every sampled event row, in recording order; grouped by content
        #: tag when read (journeys_by_content_tag)
        self._rows: list[tuple] = []
        #: header tuple -> the one instance every retained row holds.  Every
        #: packet of a flow crosses a switch with the same header, so rows
        #: share it instead of each keeping a copy; only sampled packets
        #: enter, so the table never outgrows the rows it serves
        self._headers: dict[HeaderTuple, HeaderTuple] = {}
        #: False until attach() and after detach()
        self.attached = False
        #: (switch, in-tuple) -> MC-planned out-tuple, armed by arm_intent()
        self._intent: dict[tuple[str, HeaderTuple], HeaderTuple] = {}
        self._intent_armed = False
        self.events_recorded = 0
        #: opt-in self-profiler (repro.obs.prof.Profiler), set through
        #: set_profiler(); None = off and the sink is the bare _record
        self._prof = None
        #: the one sink every hook hands its row to: ``sink(row, sampled)``
        self._sink = self._record

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
        nothing.  A network carries one recorder at a time: attaching while
        another is attached raises ``ValueError`` (its hooks would go dead
        with its rows still readable); detach that one first.
        """
        held = net.journey
        if held is not None:
            raise ValueError(
                f"{held!r} is already attached to this network; detach it first"
            )
        rec = cls(net, sample_rate=sample_rate, predicate=predicate, flight=flight)
        rec.attached = True
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
        self.attached = False
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

    def set_profiler(self, prof) -> None:
        """Bracket every sunk row in ``prof``'s ``obs.hook`` frame (None = off)."""
        self._prof = prof
        self._sink = self._record if prof is None else self._record_profiled

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

    # -- the sink -------------------------------------------------------------
    def _record(self, row: tuple, sampled: bool) -> None:
        """Count ``row``, keep it when sampled, ring it when a flight
        recorder is armed, and let that recorder fire if the kind can."""
        self.events_recorded += 1
        if sampled:
            self._rows.append(row)
        rings = self._rings
        if rings is not None:
            rings[row[_WHERE]].append(row)
            trigger = self._armed.get(row[_KIND])
            if trigger is not None:
                self.flight.fire(trigger, row)

    def _record_profiled(self, row: tuple, sampled: bool) -> None:
        prof = self._prof
        prof.enter("obs.hook")
        prof.count("obs.hook", "journey_emit")
        try:
            self._record(row, sampled)
        finally:
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
        sampled = self._keep_all or self.wants(packet)
        if sampled or self._watch_all:
            self._sink((
                self.sim.now, "host.tx", host.name, packet.uid,
                packet.content_tag, _HOST_TX, packet.ip_dst.text, packet.size,
            ), sampled)

    def on_switch_ingress(
        self, switch: "Switch", packet: "Packet", in_port: int
    ) -> Optional[HeaderTuple]:
        """A switch received a packet (pre-pipeline).

        Returns the header tuple it recorded, or None when the packet
        generates no events.  The switch carries it to classification as
        the hop's pre-rewrite header, and calls the classification hooks
        below only when it is not None.
        """
        sampled = self._keep_all or self.wants(packet)
        if not (sampled or self._watch_all):
            return None
        header = (
            packet.ip_src.text, packet.ip_dst.text, packet.sport, packet.dport,
            packet.mpls,
        )
        if sampled:
            header = self._headers.setdefault(header, header)
        self._sink((
            self.sim.now, "switch.ingress", switch.name, packet.uid,
            packet.content_tag, _SWITCH_INGRESS, in_port, header, packet.size,
        ), sampled)
        return header

    def on_switch_applied(
        self,
        switch: "Switch",
        packet: "Packet",
        in_port: int,
        entry: "FlowEntry",
        old: HeaderTuple,
        emissions: list[tuple[int, "Packet"]],
    ) -> None:
        """The pipeline matched ``entry`` and produced ``emissions``; ``old``
        is the header :meth:`on_switch_ingress` returned for this hop."""
        sampled = self._keep_all or self.wants(packet)
        sink = self._sink
        now = self.sim.now
        where = switch.name
        uid = packet.uid
        new = (
            packet.ip_src.text, packet.ip_dst.text, packet.sport, packet.dport,
            packet.mpls,
        )
        if new != old:
            if sampled:
                new = self._headers.setdefault(new, new)
            sink((
                now, "switch.rewrite", where, uid, packet.content_tag,
                _SWITCH_REWRITE, in_port, entry.entry_id, entry.cookie, old, new,
            ), sampled)
        else:
            new = old
        emitted = []
        for _port, p in emissions:
            header = (p.ip_src.text, p.ip_dst.text, p.sport, p.dport, p.mpls)
            if header == new:  # the usual emission: the rewritten packet
                header = new
            elif sampled:  # a group bucket's own rewrite
                header = self._headers.setdefault(header, header)
            emitted.append(header)
        if self._intent_armed:
            expected = self._intent.get((where, old))
            if expected is not None and expected not in emitted:
                sink((
                    now, "switch.divergence", where, uid, packet.content_tag,
                    _SWITCH_DIVERGENCE, in_port, entry.entry_id, entry.cookie,
                    old, expected, emitted,
                ), sampled)
        for (port, out_pkt), header in zip(emissions, emitted):
            sink((
                now, "switch.egress", where, out_pkt.uid, out_pkt.content_tag,
                _SWITCH_EGRESS, port, uid, entry.entry_id, header, out_pkt.size,
            ), sampled)

    def on_switch_miss(
        self, switch: "Switch", packet: "Packet", in_port: int,
        header: HeaderTuple,
    ) -> None:
        """No rule matched; the packet is being punted.  ``header`` is the
        one :meth:`on_switch_ingress` returned (a miss rewrites nothing)."""
        self._sink((
            self.sim.now, "switch.miss", switch.name, packet.uid,
            packet.content_tag, _SWITCH_MISS, in_port, header,
        ), self._keep_all or self.wants(packet))

    def on_ttl_expired(
        self, switch: "Switch", packet: "Packet", in_port: int
    ) -> None:
        """The packet died of TTL in this switch's pipeline (called only when
        :meth:`on_switch_ingress` recorded the hop)."""
        self._sink((
            self.sim.now, "switch.ttl_expired", switch.name, packet.uid,
            packet.content_tag, _SWITCH_TTL_EXPIRED, in_port,
        ), self._keep_all or self.wants(packet))

    def on_link_tx(
        self,
        channel: "Channel",
        packet: "Packet",
        queue_wait_s: float,
        serialize_s: float,
        backlog_bytes: int,
        size: int,
    ) -> None:
        """A channel accepted the packet (``size`` bytes) for transmission."""
        sampled = self._keep_all or self.wants(packet)
        if sampled or self._watch_all:
            self._sink((
                self.sim.now, "link.tx", channel.name, packet.uid,
                packet.content_tag, _LINK_TX, queue_wait_s, serialize_s,
                channel.delay_s, backlog_bytes, size,
            ), sampled)

    def on_link_drop(
        self, channel: "Channel", packet: "Packet", backlog_bytes: int
    ) -> None:
        """A channel tail-dropped the packet."""
        sampled = self._keep_all or self.wants(packet)
        if sampled or self._watch_all:
            self._sink((
                self.sim.now, "link.drop", channel.name, packet.uid,
                packet.content_tag, _LINK_DROP, backlog_bytes, packet.size,
            ), sampled)

    def on_link_state(self, channel: "Channel", up: bool) -> None:
        """A directed channel was administratively brought down.

        Not packet-scoped: the event carries uid 0 and content tag 0 and
        feeds only the flight recorder (there is no journey to append to) —
        it exists so an armed ``link_down`` trigger snapshots the traffic
        leading up to the failure.  It is not a hook body the profiler
        brackets.
        """
        if self._watch_all:
            self._record(
                (self.sim.now, "link.down", channel.name, 0, 0, _LINK_DOWN, up),
                False,
            )

    def on_host_rx(self, host: "Host", packet: "Packet") -> None:
        """The destination NIC accepted the packet."""
        sampled = self._keep_all or self.wants(packet)
        if sampled or self._watch_all:
            now = self.sim.now
            self._sink((
                now, "host.rx", host.name, packet.uid, packet.content_tag,
                _HOST_RX, packet.ip_src.text, now - packet.created_at,
                packet.size,
            ), sampled)

    def on_host_foreign_drop(self, host: "Host", packet: "Packet") -> None:
        """A NIC discarded a packet not addressed to it (decoy death)."""
        sampled = self._keep_all or self.wants(packet)
        if sampled or self._watch_all:
            self._sink((
                self.sim.now, "host.foreign_drop", host.name, packet.uid,
                packet.content_tag, _HOST_FOREIGN_DROP, packet.ip_dst.text,
            ), sampled)

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


# ---------------------------------------------------------------------------
# serialization + reporting
# ---------------------------------------------------------------------------


def journeys_to_json(  # taint: sink
    recorder: JourneyRecorder, flight: Optional["FlightRecorder"] = None
) -> dict[str, Any]:
    """The JSON document ``python -m repro.obs journey --dump`` writes.

    ``summarize`` detects the ``journeys`` key and renders the hop table.
    """
    flight = flight if flight is not None else recorder.flight
    doc: dict[str, Any] = {
        "sim_time_s": recorder.sim.now,
        "journeys": [
            {
                "content_tag": j.content_tag,
                "origin": j.origin(),
                "delivered_to": j.delivered_to(),
                "events": [e.to_dict() for e in j],
            }
            for j in recorder.journeys_by_content_tag().values()
        ],
    }
    if flight is not None:
        doc["flight_dumps"] = [d.to_dict() for d in flight.dumps]
    return doc


def format_hop_table(doc: dict[str, Any], top: int = 5) -> str:
    """Per-flow hop table from a journey dump document (or live export).

    Shows each journey's path, its rewrite chain, and the worst queue
    waits — the ``summarize`` rendering for journey/flight dumps.
    """
    lines: list[str] = []
    journeys = doc.get("journeys", [])
    lines.append(f"journey dump @ t={doc.get('sim_time_s', 0.0):.6f}s: "
                 f"{len(journeys)} journeys")
    rewrite_counts: dict[tuple[str, str], int] = {}
    waits: list[tuple[float, str, int]] = []
    for j in journeys:
        events = j["events"]
        hops = [
            e["where"] for e in events
            if e["kind"] in ("host.tx", "switch.ingress", "host.rx")
        ]
        dedup: list[str] = []
        for h in hops:
            if not dedup or dedup[-1] != h:
                dedup.append(h)
        delivered = ",".join(j.get("delivered_to") or []) or "-"
        lines.append(
            f"  tag {j['content_tag']}: {' -> '.join(dedup) or '(no hops)'} "
            f"[delivered: {delivered}]"
        )
        for e in events:
            if e["kind"] == "switch.rewrite":
                old, new = e["detail"]["old"], e["detail"]["new"]
                key = (e["where"], f"{tuple(old)} -> {tuple(new)}")
                rewrite_counts[key] = rewrite_counts.get(key, 0) + 1
            elif e["kind"] == "link.tx":
                waits.append(
                    (e["detail"]["queue_wait_s"], e["where"], j["content_tag"])
                )
    if rewrite_counts:
        lines.append(f"  top rewrites (of {len(rewrite_counts)}):")
        ranked = sorted(rewrite_counts.items(), key=lambda kv: -kv[1])[:top]
        for (switch, rw), n in ranked:
            lines.append(f"    {n:>4}x {switch}: {rw}")
    if waits:
        lines.append("  worst queue waits:")
        for wait, where, tag in sorted(waits, reverse=True)[:top]:
            lines.append(f"    {wait * 1e6:9.3f}us on {where} (tag {tag})")
    dumps = doc.get("flight_dumps", [])
    if dumps:
        lines.append(f"  flight dumps: {len(dumps)}")
        for d in dumps:
            n_events = sum(len(v) for v in d["events"].values())
            lines.append(
                f"    t={d['time_s']:.6f}s trigger={d['trigger']} "
                f"({n_events} retained events at {len(d['events'])} locations)"
            )
    return "\n".join(lines)
