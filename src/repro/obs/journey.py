"""Per-packet journey tracing: hop-by-hop causal records keyed on identity.

MIC's whole point is that headers lie: once a Mimic Node rewrites
⟨src, dst, mpls⟩, nothing on the wire links the packet's hops.  The journey
recorder follows packets anyway — from the *inside* — keyed on the sim-side
identities that survive rewrites (:attr:`Packet.uid` per instance,
:attr:`Packet.content_tag` per wire content, shared by multicast decoy
copies).  Each hop records ingress port, matched rule, the rewrite applied
(old → new header tuple), queue wait, serialization time, and egress.  It
is the simulator's one per-packet record (the trace log keeps control-plane
actions and state changes), and it gives:

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

import struct
import zlib
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, Optional

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

# An event reads back as one flat row
#   (time_s, kind, where, uid, content_tag, keys, *values)
# with ``keys`` the kind's ``fields`` tuple from JOURNEY_EVENTS.  It holds
# scalars, strings and header tuples only, so the collector stops tracking
# it (see repro.sim.trace).  The queries read the columns they need by
# position; a JourneyEvent is built only for callers that ask for events.
# How a recorder stores a row is the packed log below.
_TIME, _KIND, _WHERE, _UID, _TAG, _KEYS, _VALUES = range(7)


def row_column(kind: str, name: str) -> int:
    """Position, in a row as read back, of one contracted field of a kind."""
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


def _parent_map(rows: Iterable[tuple]) -> dict[int, int]:
    return {
        row[_UID]: row[_PARENT_UID_AT] for row in rows if row[_KIND] == "switch.egress"
    }


def _delivered_uids(rows: list[tuple]) -> set[int]:
    parents = _parent_map(rows)
    delivered: set[int] = set()
    for row in rows:
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


class Journey:
    """Every recorded event for one wire content (one ``content_tag``).

    Multicast decoy copies share the tag, so a journey is a *tree*: the
    original instance plus every copy, linked through the ``parent_uid``
    field of ``switch.egress`` events.

    ``rows`` is any sized collection of rows; a recorder's journeys pass one
    that decodes its records on each pass, so every query reads it once.
    """

    def __init__(self, content_tag: int, rows: Collection[tuple]):
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
        return _parent_map(self._rows)

    def delivered_uids(self) -> set[int]:
        """Uids on a lineage chain that ends in a ``host.rx`` delivery.

        This is the exact "real copy" label the correlation attack is scored
        against: a decoy copy (dropped next hop or dying at an innocent NIC)
        never appears here, the true continuation always does.
        """
        return _delivered_uids(list(self._rows))

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
        rows = list(self._rows)
        live = _delivered_uids(rows)
        out: list[str] = []
        for row in rows:
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
# the packed log
# ---------------------------------------------------------------------------

# A recorder keeps every sampled row in one bytearray.  A row of a hot kind
# (one a packet hop writes) is one fixed-layout binary record, packed by its
# kind's struct inside the hook:
#   code, time_s, where, uid, content_tag, *values
# where ``where``, the IP texts and the header tuples are indexes into the
# recorder's intern table, so a record holds no object at all.  A row of a
# rare kind stays the tuple the hook built, in a side list; the log holds a
# (code, index) reference to it.  So does a hot row with a value its record
# cannot hold (a port past 2**31, a cookie past 2**64, a float size): the
# struct refuses it and the hook keeps the row as it would a rare one.
# Rows are decoded back into the tuples above only when read.
_HEAD = "<BdIqq"  # code, time_s, where, uid, content_tag
#: a hot kind's value fields: their struct codes, and which are interned
_FIELD_FORMATS = {
    "in_port": "i", "out_port": "i", "size": "I", "entry_id": "q",
    "cookie": "Q", "parent_uid": "q", "backlog_bytes": "q",
    "queue_wait_s": "d", "serialize_s": "d", "delay_s": "d", "latency_s": "d",
}
_INTERNED_FIELDS = frozenset({"dst_ip", "src_ip", "header", "old", "new"})
_HOT_KINDS = (
    "host.tx", "switch.ingress", "switch.rewrite", "switch.egress",
    "link.tx", "host.rx",
)


class _Layout:
    """One hot kind's record: its struct and how to decode it."""

    __slots__ = ("kind", "fields", "struct", "interned", "at")

    def __init__(self, kind: str):
        self.kind = kind
        self.fields = _EVENTS_BY_KIND[kind].fields
        self.struct = struct.Struct(_HEAD + "".join(
            "I" if name in _INTERNED_FIELDS else _FIELD_FORMATS[name]
            for name in self.fields
        ))
        #: value positions that hold intern-table indexes
        self.interned = tuple(
            i for i, name in enumerate(self.fields) if name in _INTERNED_FIELDS
        )
        #: field name -> its position in an unpacked record
        self.at = {name: 5 + i for i, name in enumerate(self.fields)}

    def row(self, unpacked: tuple, table: list) -> tuple:
        """The row an unpacked record stands for."""
        values = list(unpacked[5:])
        for i in self.interned:
            values[i] = table[values[i]]
        return (
            unpacked[1], self.kind, table[unpacked[2]], unpacked[3],
            unpacked[4], self.fields, *values,
        )


#: record code -> its layout; the code after the hot kinds marks a
#: reference to a rare row
_LAYOUTS: tuple[Optional[_Layout], ...] = (
    *(_Layout(kind) for kind in _HOT_KINDS), None,
)
_RARE = len(_HOT_KINDS)
_RARE_REF = struct.Struct("<BI")  # code, index into the rare rows
_RARE_REF_PACK = _RARE_REF.pack
#: record code -> its size in the log
_SIZES = (*(layout.struct.size for layout in _LAYOUTS[:_RARE]), _RARE_REF.size)
#: a hot record's content tag: its offset and how to read it alone
_TAG_AT = struct.calcsize(_HEAD) - 8
_TAG_UNPACK = struct.Struct("<q").unpack_from

# what each hook packs with: its kind's code and bound struct.pack
(_HOST_TX_PACK, _INGRESS_PACK, _REWRITE_PACK, _EGRESS_PACK, _LINK_TX_PACK,
 _HOST_RX_PACK) = (layout.struct.pack for layout in _LAYOUTS[:_RARE])
(_HOST_TX_CODE, _INGRESS_CODE, _REWRITE_CODE, _EGRESS_CODE, _LINK_TX_CODE,
 _HOST_RX_CODE) = range(_RARE)


class _Places(dict):
    """Location name -> (its intern index, its flight ring or None): one
    dict read per sampled row, filled on the first sampled row there."""

    def __init__(self, interned: dict, rings: Optional[dict]):
        super().__init__()
        self.interned = interned
        self.rings = rings

    def __missing__(self, where: str) -> tuple:
        interned, rings = self.interned, self.rings
        place = self[where] = (
            interned.setdefault(where, len(interned)),
            None if rings is None else rings[where],
        )
        return place


class _LoggedRows:
    """One journey's rows as the offsets of its records in the recorder's
    log: a sized collection that decodes them on every pass."""

    __slots__ = ("recorder", "offsets")

    def __init__(self, recorder: "JourneyRecorder", offsets: list[int]):
        self.recorder = recorder
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.recorder._decode(self.offsets))


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

    Each hook builds its record once and hands it to one sink, which counts
    it, appends it to the packed log when the tag is sampled and appends it
    to its location's flight ring.  A sampled row is a binary record whose
    names, addresses and headers are indexes into one intern table; an
    unsampled row (rings only) stays a tuple and interns nothing.  Read
    the rows back with :meth:`rows` or the journey queries.  A network
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
        #: every sampled row, in recording order, as packed records
        self._log = bytearray()
        #: the sampled rows of rare kinds, which the log references by index
        self._rare: list[tuple] = []
        #: name, IP text or header tuple -> its index in a record.  Only
        #: sampled rows intern, so the table never outgrows the rows it
        #: serves; it is append-only, and read back in insertion order
        self._interned: dict[Any, int] = {}
        self._table: list[Any] = []
        self._places = _Places(self._interned, self._rings)
        #: False until attach() and after detach()
        self.attached = False
        #: (switch, in-tuple) -> MC-planned out-tuple, armed by arm_intent()
        self._intent: dict[tuple[str, HeaderTuple], HeaderTuple] = {}
        self._intent_armed = False
        self.events_recorded = 0

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
    def _record(self, record: Any, kind: str, ring: Any, keep: bool) -> None:
        """Count one event, append ``record`` to the log when ``keep``,
        append it to ``ring`` when a flight recorder is armed, and let that
        recorder fire if ``kind`` can."""
        self.events_recorded += 1
        if keep:
            self._log += record
        if ring is not None:
            ring.append(record)
            trigger = self._armed.get(kind)
            if trigger is not None:
                self.flight.fire(trigger, record)

    def _keep_row(self, row: tuple) -> None:
        """Keep a sampled row as a tuple: it joins the rare rows and the log
        keeps a reference to it (the caller still hands it to the sink)."""
        self._log += _RARE_REF_PACK(_RARE, len(self._rare))
        self._rare.append(row)

    def _record_rare(self, row: tuple, sampled: bool) -> None:
        """The sink for a rare kind's row, which stays a tuple (kept as
        :meth:`_keep_row` keeps one, inline: no call per rare row)."""
        if sampled:
            self._log += _RARE_REF_PACK(_RARE, len(self._rare))
            self._rare.append(row)
        rings = self._rings
        self._record(
            row, row[_KIND], None if rings is None else rings[row[_WHERE]], False
        )

    # -- reading the log back -------------------------------------------------
    def _values(self) -> list[Any]:
        """The intern table by index (extended when it has grown)."""
        table = self._table
        if len(table) != len(self._interned):
            table += islice(self._interned, len(table), None)
        return table

    def _offsets(self) -> Iterator[int]:
        """Where each record starts in the log, in recording order."""
        log = self._log
        at, end = 0, len(log)
        while at < end:
            yield at
            at += _SIZES[log[at]]

    def _decode(self, offsets: Iterable[int]) -> list[tuple]:
        """The rows the log's records at ``offsets`` stand for."""
        log, rare, table = self._log, self._rare, self._values()
        rows: list[tuple] = []
        for at in offsets:
            layout = _LAYOUTS[log[at]]
            if layout is None:
                rows.append(rare[_RARE_REF.unpack_from(log, at)[1]])
            else:
                rows.append(layout.row(layout.struct.unpack_from(log, at), table))
        return rows

    def rows(self) -> list[tuple]:
        """Every sampled row, decoded, in recording order."""
        return self._decode(self._offsets())

    def decode(self, record: Any) -> tuple:
        """The row one record this recorder made stands for (a flight ring
        holds the record of a sampled row, the row itself otherwise)."""
        if record.__class__ is tuple:
            return record
        layout = _LAYOUTS[record[0]]
        return layout.row(layout.struct.unpack(record), self._values())

    def field(self, record: Any, name: str) -> Any:
        """One contracted field of a record this recorder made, read
        without decoding the rest (a flight trigger's threshold reads it)."""
        if record.__class__ is tuple:
            return record[row_column(record[_KIND], name)]
        layout = _LAYOUTS[record[0]]
        at = layout.at[name]
        value = layout.struct.unpack(record)[at]
        return self._values()[value] if at - 5 in layout.interned else value

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
                for walk, mns, addrs in plan.directions():
                    self._arm_direction(walk, mns, addrs)
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
    # A sampled event packs its record; an unsampled one an armed flight
    # recorder watches is ringed as a tuple, and so is a sampled one whose
    # values its record cannot hold (kept through _keep_row).
    def on_host_tx(self, host: "Host", packet: "Packet") -> None:
        """The origin host pushed a packet into its stack."""
        sampled = self._keep_all or self.wants(packet)
        if sampled:
            interned = self._interned
            where, ring = self._places[host.name]
            try:
                record = _HOST_TX_PACK(
                    _HOST_TX_CODE, self.sim.now, where, packet.uid,
                    packet.content_tag,
                    interned.setdefault(packet.ip_dst.text, len(interned)),
                    packet.size,
                )
            except struct.error:  # a value past the record's widths
                pass
            else:
                return self._record(record, "host.tx", ring, True)
        elif self._watch_all:
            ring = self._rings[host.name]
        else:
            return
        row = (
            self.sim.now, "host.tx", host.name, packet.uid, packet.content_tag,
            _HOST_TX, packet.ip_dst.text, packet.size,
        )
        if sampled:
            self._keep_row(row)
        self._record(row, "host.tx", ring, False)

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
            interned = self._interned
            where, ring = self._places[switch.name]
            try:
                record = _INGRESS_PACK(
                    _INGRESS_CODE, self.sim.now, where, packet.uid,
                    packet.content_tag, in_port,
                    interned.setdefault(header, len(interned)), packet.size,
                )
            except struct.error:  # a value past the record's widths
                pass
            else:
                self._record(record, "switch.ingress", ring, True)
                return header
        else:
            ring = self._rings[switch.name]
        row = (
            self.sim.now, "switch.ingress", switch.name, packet.uid,
            packet.content_tag, _SWITCH_INGRESS, in_port, header, packet.size,
        )
        if sampled:
            self._keep_row(row)
        self._record(row, "switch.ingress", ring, False)
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
        sink = self._record
        now = self.sim.now
        name = switch.name
        uid = packet.uid
        new = (
            packet.ip_src.text, packet.ip_dst.text, packet.sport, packet.dport,
            packet.mpls,
        )
        rewrote = new != old
        emitted = []
        for _port, p in emissions:
            emitted.append((p.ip_src.text, p.ip_dst.text, p.sport, p.dport, p.mpls))
        if sampled:
            interned = self._interned
            where, ring = self._places[name]
            new_at = interned.setdefault(new, len(interned))
        else:
            ring = self._rings[name]
        if rewrote:
            record = None
            if sampled:
                try:
                    record = _REWRITE_PACK(
                        _REWRITE_CODE, now, where, uid, packet.content_tag,
                        in_port, entry.entry_id, entry.cookie,
                        interned.setdefault(old, len(interned)), new_at,
                    )
                except struct.error:  # a value past the record's widths
                    pass
            if record is not None:
                sink(record, "switch.rewrite", ring, True)
            else:
                row = (
                    now, "switch.rewrite", name, uid, packet.content_tag,
                    _SWITCH_REWRITE, in_port, entry.entry_id, entry.cookie,
                    old, new,
                )
                if sampled:
                    self._keep_row(row)
                sink(row, "switch.rewrite", ring, False)
        if self._intent_armed:
            expected = self._intent.get((name, old))
            if expected is not None and expected not in emitted:
                self._record_rare((
                    now, "switch.divergence", name, uid, packet.content_tag,
                    _SWITCH_DIVERGENCE, in_port, entry.entry_id, entry.cookie,
                    old, expected, emitted,
                ), sampled)
        for (port, out_pkt), header in zip(emissions, emitted):
            if sampled:
                try:
                    record = _EGRESS_PACK(
                        _EGRESS_CODE, now, where, out_pkt.uid,
                        out_pkt.content_tag, port, uid, entry.entry_id,
                        # the usual emission carries the hop's new header
                        new_at if header == new
                        else interned.setdefault(header, len(interned)),
                        out_pkt.size,
                    )
                except struct.error:  # a value past the record's widths
                    pass
                else:
                    sink(record, "switch.egress", ring, True)
                    continue
            row = (
                now, "switch.egress", name, out_pkt.uid, out_pkt.content_tag,
                _SWITCH_EGRESS, port, uid, entry.entry_id, header, out_pkt.size,
            )
            if sampled:
                self._keep_row(row)
            sink(row, "switch.egress", ring, False)

    def on_switch_miss(
        self, switch: "Switch", packet: "Packet", in_port: int,
        header: HeaderTuple,
    ) -> None:
        """No rule matched; the packet is being punted.  ``header`` is the
        one :meth:`on_switch_ingress` returned (a miss rewrites nothing)."""
        self._record_rare((
            self.sim.now, "switch.miss", switch.name, packet.uid,
            packet.content_tag, _SWITCH_MISS, in_port, header,
        ), self._keep_all or self.wants(packet))

    def on_ttl_expired(
        self, switch: "Switch", packet: "Packet", in_port: int
    ) -> None:
        """The packet died of TTL in this switch's pipeline (called only when
        :meth:`on_switch_ingress` recorded the hop)."""
        self._record_rare((
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
        if sampled:
            where, ring = self._places[channel.name]
            try:
                record = _LINK_TX_PACK(
                    _LINK_TX_CODE, self.sim.now, where, packet.uid,
                    packet.content_tag, queue_wait_s, serialize_s,
                    channel.delay_s, backlog_bytes, size,
                )
            except struct.error:  # a value past the record's widths
                pass
            else:
                return self._record(record, "link.tx", ring, True)
        elif self._watch_all:
            ring = self._rings[channel.name]
        else:
            return
        row = (
            self.sim.now, "link.tx", channel.name, packet.uid,
            packet.content_tag, _LINK_TX, queue_wait_s, serialize_s,
            channel.delay_s, backlog_bytes, size,
        )
        if sampled:
            self._keep_row(row)
        self._record(row, "link.tx", ring, False)

    def on_link_drop(
        self, channel: "Channel", packet: "Packet", backlog_bytes: int
    ) -> None:
        """A channel tail-dropped the packet."""
        sampled = self._keep_all or self.wants(packet)
        if sampled or self._watch_all:
            self._record_rare((
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
            # the class's own sink, past any profiler bracket on the instance
            JourneyRecorder._record(
                self,
                (self.sim.now, "link.down", channel.name, 0, 0, _LINK_DOWN, up),
                "link.down", self._rings[channel.name], False,
            )

    def on_host_rx(self, host: "Host", packet: "Packet") -> None:
        """The destination NIC accepted the packet."""
        now = self.sim.now
        sampled = self._keep_all or self.wants(packet)
        if sampled:
            interned = self._interned
            where, ring = self._places[host.name]
            try:
                record = _HOST_RX_PACK(
                    _HOST_RX_CODE, now, where, packet.uid, packet.content_tag,
                    interned.setdefault(packet.ip_src.text, len(interned)),
                    now - packet.created_at, packet.size,
                )
            except struct.error:  # a value past the record's widths
                pass
            else:
                return self._record(record, "host.rx", ring, True)
        elif self._watch_all:
            ring = self._rings[host.name]
        else:
            return
        row = (
            now, "host.rx", host.name, packet.uid, packet.content_tag,
            _HOST_RX, packet.ip_src.text, now - packet.created_at, packet.size,
        )
        if sampled:
            self._keep_row(row)
        self._record(row, "host.rx", ring, False)

    def on_host_foreign_drop(self, host: "Host", packet: "Packet") -> None:
        """A NIC discarded a packet not addressed to it (decoy death)."""
        sampled = self._keep_all or self.wants(packet)
        if sampled or self._watch_all:
            self._record_rare((
                self.sim.now, "host.foreign_drop", host.name, packet.uid,
                packet.content_tag, _HOST_FOREIGN_DROP, packet.ip_dst.text,
            ), sampled)

    # -- queries (the ground-truth linkage API) -----------------------------
    def journeys_by_content_tag(self) -> dict[int, Journey]:
        """Every sampled journey, keyed by content tag — the exact-linkage
        ground truth :mod:`repro.attacks` scores adversaries against.

        A journey holds where its records sit in the log, not its rows, and
        decodes them on each query: reading the history back keeps no row
        tuples beyond the query at hand."""
        log, rare = self._log, self._rare
        grouped: dict[int, list[int]] = {}
        for at in self._offsets():
            if log[at] == _RARE:
                tag = rare[_RARE_REF.unpack_from(log, at)[1]][_TAG]
            else:
                tag = _TAG_UNPACK(log, at + _TAG_AT)[0]
            grouped.setdefault(tag, []).append(at)
        return {
            tag: Journey(tag, _LoggedRows(self, offsets))
            for tag, offsets in grouped.items()
        }

    def journey(self, content_tag: int) -> Journey:
        """One journey by tag (KeyError if never sampled)."""
        return self.journeys_by_content_tag()[content_tag]

    def __len__(self) -> int:
        return len(self.journeys_by_content_tag())


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
    journeys = []
    for j in recorder.journeys_by_content_tag().values():
        j = Journey(j.content_tag, list(j._rows))  # decoded once, read thrice
        journeys.append({
            "content_tag": j.content_tag,
            "origin": j.origin(),
            "delivered_to": j.delivered_to(),
            "events": [e.to_dict() for e in j],
        })
    doc: dict[str, Any] = {"sim_time_s": recorder.sim.now, "journeys": journeys}
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
