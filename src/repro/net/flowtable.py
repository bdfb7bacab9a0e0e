"""OpenFlow-style flow table: match → actions, with priorities and groups.

This is the commodity-SDN-switch abstraction MIC is designed against
(Sec III: MNs "can only modify the header of packets" through ordinary
southbound rules — no encryption, delaying or batching).  The table supports
exactly the primitives the paper's design needs:

* matching on ⟨in_port, eth, ipv4 src/dst, l4 ports, mpls label⟩,
* ``set-field`` rewriting of any of those header fields,
* ``output`` to a port, ``drop``, punt to controller,
* ``group`` (type *all*) entries for the partial-multicast mechanism,
* MPLS push/pop for tagging m-flows vs common flows.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Any, Callable, Iterator, Optional, Sequence

from ..sim import Simulator
from .addresses import IPv4Addr, MacAddr
from .packet import MPLS_SHIM, Packet

__all__ = [
    "Match",
    "Action",
    "SetField",
    "Output",
    "Group",
    "Drop",
    "ToController",
    "PushMpls",
    "PopMpls",
    "FlowEntry",
    "GroupEntry",
    "FlowTable",
    "CONTROLLER_PORT",
]

#: pseudo-port meaning "punt to the controller"
CONTROLLER_PORT = -1

_MATCHABLE = (
    "in_port",
    "eth_src",
    "eth_dst",
    "ip_src",
    "ip_dst",
    "proto",
    "sport",
    "dport",
    "mpls",
)

_SETTABLE = (
    "eth_src",
    "eth_dst",
    "ip_src",
    "ip_dst",
    "sport",
    "dport",
    "mpls",
    "ttl",
)


@dataclass(frozen=True)
class Match:
    """A wildcard match over packet header fields.

    ``None`` means "don't care".  ``mpls`` uses the sentinel
    :data:`Match.NO_MPLS` to require *absence* of an MPLS shim (matching a
    packet whose label is None), since ``None`` already means wildcard.
    """

    NO_MPLS = -1

    in_port: Optional[int] = None
    eth_src: Optional[MacAddr] = None
    eth_dst: Optional[MacAddr] = None
    ip_src: Optional[IPv4Addr] = None
    ip_dst: Optional[IPv4Addr] = None
    proto: Optional[str] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
    mpls: Optional[int] = None

    def matches(self, packet: Packet, in_port: int) -> bool:
        """True iff this match covers the packet on ``in_port``."""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.eth_src is not None and packet.eth_src != self.eth_src:
            return False
        if self.eth_dst is not None and packet.eth_dst != self.eth_dst:
            return False
        if self.ip_src is not None and packet.ip_src != self.ip_src:
            return False
        if self.ip_dst is not None and packet.ip_dst != self.ip_dst:
            return False
        if self.proto is not None and packet.proto != self.proto:
            return False
        if self.sport is not None and packet.sport != self.sport:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        if self.mpls is not None:
            if self.mpls == Match.NO_MPLS:
                if packet.mpls is not None:
                    return False
            elif packet.mpls != self.mpls:
                return False
        return True

    def key(self) -> tuple:
        """Hashable identity used to detect duplicate installs: the field
        values in ``_MATCHABLE`` order."""
        return (
            self.in_port, self.eth_src, self.eth_dst, self.ip_src, self.ip_dst,
            self.proto, self.sport, self.dport, self.mpls,
        )

    def intersects(self, other: "Match") -> bool:
        """True iff some packet (on some port) could match both.

        Per-field: two concrete constraints conflict only when they differ;
        a wildcard (``None``) never conflicts.  ``NO_MPLS`` behaves as a
        concrete value distinct from every real label, so "no shim" and
        "label 7" are correctly disjoint.
        """
        for f in _MATCHABLE:
            a, b = getattr(self, f), getattr(other, f)
            if a is not None and b is not None and a != b:
                return False
        return True

    def covers(self, other: "Match") -> bool:
        """True iff every packet matched by ``other`` is matched by ``self``.

        This is the partial order of the match lattice: ``self`` is at least
        as general as ``other`` on every field.  A higher-priority entry
        whose match covers a lower-priority one *shadows* it completely.
        """
        for f in _MATCHABLE:
            mine = getattr(self, f)
            if mine is None:
                continue
            if getattr(other, f) != mine:
                return False
        return True

    # A match is frozen and one instance is shared by every rule of a path,
    # so what is derived from its fields is worked out once per instance.
    @cached_property
    def _text(self) -> str:
        parts = [
            f"{f}={'NO_MPLS' if f == 'mpls' and v == Match.NO_MPLS else v}"
            for f, v in zip(_MATCHABLE, self.key())
            if v is not None
        ]
        return "Match(" + ", ".join(parts) + ")" if parts else "Match(*)"

    @cached_property
    def _index(self) -> tuple[tuple[str, ...], tuple]:
        """Tuple-space coordinates ``(pattern, key)``: the constrained field
        names and their concrete values.  ``NO_MPLS`` maps to ``None`` so the
        key compares directly against the packet's ``mpls`` field ("no shim"
        is literally ``None`` on a packet)."""
        pattern = []
        key = []
        for f, v in zip(_MATCHABLE, self.key()):
            if v is not None:
                pattern.append(f)
                key.append(None if f == "mpls" and v == Match.NO_MPLS else v)
        return tuple(pattern), tuple(key)

    def describe(self) -> str:
        """Compact text form listing only the constrained fields."""
        return self._text

    def __repr__(self) -> str:
        return self.describe()


class Action:
    """Base class for flow actions (tag only)."""

    __slots__ = ()


@dataclass(frozen=True)
class SetField(Action):
    """Rewrite one header field — the Mimic Node primitive."""

    field: str
    value: Any

    def __post_init__(self) -> None:
        if self.field not in _SETTABLE:
            raise ValueError(f"cannot set field {self.field!r}")


@dataclass(frozen=True)
class Output(Action):
    """Emit the packet on a switch port."""

    port: int


@dataclass(frozen=True)
class Group(Action):
    """Hand the packet to a group entry (multicast buckets)."""

    group_id: int


@dataclass(frozen=True)
class Drop(Action):
    """Discard the packet."""


@dataclass(frozen=True)
class ToController(Action):
    """Punt the packet to the controller (packet-in)."""


@dataclass(frozen=True)
class PushMpls(Action):
    """Add an MPLS shim with the given label."""

    label: int


@dataclass(frozen=True)
class PopMpls(Action):
    """Remove the MPLS shim."""


@dataclass
class FlowEntry:
    """One installed rule: match + priority + action list + counters."""

    match: Match
    actions: Sequence[Action]
    priority: int = 0
    cookie: int = 0
    #: stamped by the first :meth:`FlowTable.install` from the deployment's
    #: ``flowtable.entry`` namespace; 0 while the entry is in no table yet
    entry_id: int = 0
    packet_count: int = 0
    byte_count: int = 0
    #: sim time of the most recent hit; -1.0 until the first packet matches
    last_hit_s: float = -1.0
    #: installation sequence number assigned by the owning FlowTable; decides
    #: first-installed-wins among equal-priority matches (an entry object
    #: belongs to at most one table at a time)
    seq: int = dc_field(default=0, repr=False, compare=False)

    @cached_property
    def rewrite_count(self) -> int:
        """How many of the actions rewrite the header (``SetField``,
        ``PushMpls``, ``PopMpls``) — what the switch pipeline charges its
        per-rewrite delay and CPU for.  Counted on first use and kept, like
        the derived values on :class:`Match`: it is not a dataclass field,
        so equality and :meth:`describe` do not see it, and an entry whose
        ``actions`` are swapped after it has carried a packet keeps the old
        count (install a new entry instead)."""
        return len([
            a for a in self.actions
            if isinstance(a, (SetField, PushMpls, PopMpls))
        ])

    @cached_property
    def program(self) -> Optional[tuple[tuple[tuple[str, Any], ...], int]]:
        """``(writes, port)`` when the actions are header writes
        (``SetField``, ``PushMpls``, ``PopMpls``) then one ``Output`` to a
        wire port — every L3 and Mimic Node rule — else None.  ``writes``
        holds ``(field, value)`` pairs in action order (a pop writes
        ``mpls=None``); :meth:`FlowTable.apply` runs them with ``setattr``
        instead of interpreting the action list.  Derived on first use and
        kept, like :attr:`rewrite_count`."""
        if not self.actions:
            return None
        *head, last = self.actions
        if not isinstance(last, Output) or last.port == CONTROLLER_PORT:
            return None
        writes = []
        for action in head:
            if isinstance(action, SetField):
                writes.append((action.field, action.value))
            elif isinstance(action, PushMpls):
                writes.append(("mpls", action.label))
            elif isinstance(action, PopMpls):
                writes.append(("mpls", None))
            else:
                return None
        return tuple(writes), last.port

    def describe(self) -> str:
        """One-line rule rendering for traces and debugging."""
        acts = ", ".join([_fmt_action(a) for a in self.actions])
        return f"[prio={self.priority}] {self.match.describe()} -> [{acts}]"

    def __repr__(self) -> str:
        return (
            f"<FlowEntry #{self.entry_id} cookie={self.cookie:#x} "
            f"{self.describe()}>"
        )


@dataclass
class GroupEntry:
    """A type-*all* group: every bucket's actions run on its own packet copy."""

    group_id: int
    buckets: Sequence[Sequence[Action]]
    cookie: int = 0

    def describe(self) -> str:
        """One-line group rendering for traces and diagnostics."""
        rendered = "; ".join(
            "[" + ", ".join(_fmt_action(a) for a in bucket) + "]"
            for bucket in self.buckets
        )
        return f"group {self.group_id} ({len(self.buckets)} buckets): {rendered}"

    def __repr__(self) -> str:
        return f"<GroupEntry cookie={self.cookie:#x} {self.describe()}>"


def _fmt_action(action: Action) -> str:
    """Compact single-action rendering used by rule diagnostics."""
    if isinstance(action, SetField):
        return f"set {action.field}={action.value}"
    if isinstance(action, Output):
        return "output:controller" if action.port == CONTROLLER_PORT else f"output:{action.port}"
    if isinstance(action, Group):
        return f"group:{action.group_id}"
    if isinstance(action, PushMpls):
        return f"push_mpls:{action.label}"
    if isinstance(action, PopMpls):
        return "pop_mpls"
    if isinstance(action, Drop):
        return "drop"
    if isinstance(action, ToController):
        return "to_controller"
    return repr(action)


class TableMissError(LookupError):
    """No entry matched and the table has no default behaviour."""


class TableFullError(RuntimeError):
    """The table's capacity (TCAM budget) is exhausted."""


class _PriorityTier:
    """All entries at one priority, indexed by wildcard pattern.

    Tuple-space search (the classifier OVS builds its megaflow cache over):
    every entry belongs to exactly one *pattern* — the set of fields its
    match constrains — and within a pattern an exact-match hash maps the
    concrete field values to the entries installed for them.  A lookup
    probes one hash per distinct pattern instead of scanning every entry,
    so cost scales with the number of rule *shapes*, not the rule count.
    A pattern constraining no fields at all is the wildcard tier: its
    single bucket (empty key) matches every packet.
    """

    __slots__ = ("priority", "buckets", "order")

    def __init__(self, priority: int) -> None:
        self.priority = priority
        #: pattern -> {concrete-value key -> entries, insertion order}
        self.buckets: dict[tuple[str, ...], dict[tuple, list[FlowEntry]]] = {}
        #: insertion order across the whole tier (the entry-view order)
        self.order: list[FlowEntry] = []

    def add(self, entry: FlowEntry) -> None:
        pattern, key = entry.match._index
        self.buckets.setdefault(pattern, {}).setdefault(key, []).append(entry)
        self.order.append(entry)

    def rebuild(self, survivors: list[FlowEntry]) -> None:
        self.buckets = {}
        self.order = []
        for entry in survivors:
            self.add(entry)

    def best_match(self, packet: Packet, in_port: int) -> Optional[FlowEntry]:
        """Lowest-seq (first-installed) entry covering the packet, or None."""
        best: Optional[FlowEntry] = None
        for pattern, keyed in self.buckets.items():
            probe = tuple(
                in_port if f == "in_port" else getattr(packet, f)
                for f in pattern
            )
            bucket = keyed.get(probe)
            if bucket:
                head = bucket[0]
                if best is None or head.seq < best.seq:
                    best = head
        return best


#: cache-miss sentinel (a cached value may legitimately be ``None``)
_CACHE_MISS = object()

#: default per-switch lookup-cache capacity (header tuples)
DEFAULT_LOOKUP_CACHE = 1024


class FlowTable:
    """Priority-ordered flow table plus group table.

    Classification is a two-tier pipeline:

    1. a bounded **lookup cache** keyed on the packet's full header tuple
       (``in_port`` + the eight matchable header fields, addresses as their
       integer ``.value``), invalidated as a whole whenever the table
       changes (install/remove/group mutation).
       Header rewrites never stale the cache: a ``SetField``-rewritten
       packet presents a *different* header tuple and takes its own slot;
    2. per-priority **tuple-space indexes** (:class:`_PriorityTier`) probed
       from the highest installed priority down.

    Both tiers agree entry-for-entry with the reference priority-ordered
    linear scan, kept as the test oracle
    (``tests/net/flowtable_oracle.py``) and the microbenchmark baseline.

    :meth:`apply` classifies a packet and executes the matched entry's
    actions, returning the set of (port, packet) emissions and whether the
    packet must be punted to the controller.  Emitted packets are distinct
    objects when a rule outputs more than once (multicast), so downstream
    mutation cannot alias.  A rule of header writes then one wire output
    runs as its :attr:`FlowEntry.program`; ``_run_actions`` interprets the
    rest (groups, punts, drops).

    ``max_entries`` models the switch's TCAM budget: installs beyond it
    raise :class:`TableFullError` (None = unbounded).  ``cache_size``
    bounds the lookup cache (0 disables caching entirely).  ``ids`` is the
    owning switch's :meth:`Simulator.ids`, where entry ids and the uids of
    multicast copies are minted; a table outside any deployment is a
    namespace of its own.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        cache_size: int = DEFAULT_LOOKUP_CACHE,
        ids: Optional[Callable[[str], Iterator[int]]] = None,
    ) -> None:
        if ids is None:
            ids = Simulator().ids
        self._entry_ids = ids("flowtable.entry")
        self._uids = ids("packet.uid")
        self._tiers: dict[int, _PriorityTier] = {}
        self._neg_prios: list[int] = []  # negated priorities, ascending
        self._groups: dict[int, GroupEntry] = {}
        self._count = 0
        self._next_seq = 1
        self._flat: Optional[list[FlowEntry]] = None
        #: mutation counter: moves on every install, removal, group change
        #: and :meth:`clear`.  A :meth:`lookup` result stays the table's
        #: answer for that packet exactly as long as this value does not
        #: move — the contract :meth:`apply` relies on to reuse a resolved
        #: entry.  A plain attribute, read once per hop; only ``__init__``
        #: and :meth:`_bump` write it (``tests/net/test_switch_resolved_entry.py``
        #: walks ``src/`` for stores).
        self.version = 0
        self._lookup_cache: dict[tuple, Optional[FlowEntry]] = {}
        self._lookup_cache_version = 0
        self.cache_size = cache_size
        self.max_entries = max_entries
        #: classification statistics (diagnostics; not part of forwarding)
        self.cache_hits = 0
        self.cache_misses = 0
        #: opt-in self-profiler (repro.obs.prof.Profiler), set through
        #: :meth:`set_profiler`; None = off and :meth:`lookup` is the class's
        #: own, unbracketed classifier
        self._prof: Optional[Any] = None

    def _bump(self) -> None:
        """Record a table mutation: stale the flat view and the cache."""
        self.version += 1
        self._flat = None

    def set_profiler(self, prof: Optional[Any]) -> None:
        """Bracket every :meth:`lookup` in ``prof``'s ``flowtable.lookup``
        frame (None = off): the instance's ``lookup`` becomes the profiled
        variant, or the class's own method again."""
        self._prof = prof
        if prof is None:
            self.__dict__.pop("lookup", None)
        else:
            self.lookup = self._lookup_profiled

    # -- management ------------------------------------------------------
    def install(self, entry: FlowEntry) -> None:
        """Install ``entry``, feeding the index incrementally.

        Keeps the classifier's (priority desc, insertion order) semantics:
        among equal-priority matches the first-installed entry wins.
        """
        if self.max_entries is not None and self._count >= self.max_entries:
            raise TableFullError(
                f"flow table full ({self.max_entries} entries)"
            )
        tier = self._tiers.get(entry.priority)
        if tier is None:
            tier = _PriorityTier(entry.priority)
            self._tiers[entry.priority] = tier
            insort(self._neg_prios, -entry.priority)
        entry.seq = self._next_seq
        self._next_seq += 1
        if not entry.entry_id:
            entry.entry_id = next(self._entry_ids)
        tier.add(entry)
        self._count += 1
        self._bump()

    def _remove_where(self, pred) -> int:
        """Remove every entry satisfying ``pred``; returns the count."""
        removed = 0
        for priority in list(self._tiers):
            tier = self._tiers[priority]
            survivors = [e for e in tier.order if not pred(e)]
            dropped = len(tier.order) - len(survivors)
            if not dropped:
                continue
            removed += dropped
            if survivors:
                tier.rebuild(survivors)
            else:
                del self._tiers[priority]
                self._neg_prios.remove(-priority)
        if removed:
            self._count -= removed
            self._bump()
        return removed

    def remove(self, match: Match, priority: Optional[int] = None) -> int:
        """Remove entries with an identical match (and priority if given)."""
        key = match.key()
        return self._remove_where(
            lambda e: e.match.key() == key
            and (priority is None or e.priority == priority)
        )

    def remove_by_cookie(self, cookie: int) -> int:
        """Remove every entry tagged with ``cookie``; returns the count."""
        return self._remove_where(lambda e: e.cookie == cookie)

    def install_group(self, group: GroupEntry) -> None:
        """Install (or replace) a group entry."""
        self._groups[group.group_id] = group
        self._bump()

    def remove_group(self, group_id: int) -> None:
        """Remove a group entry if present."""
        if self._groups.pop(group_id, None) is not None:
            self._bump()

    def remove_groups_by_cookie(self, cookie: int) -> int:
        """Remove every group tagged with ``cookie``; returns the count."""
        stale = [gid for gid, g in self._groups.items() if g.cookie == cookie]
        for gid in stale:
            del self._groups[gid]
        if stale:
            self._bump()
        return len(stale)

    def clear(self) -> int:
        """Wipe every flow entry and group (a switch losing its state on a
        crash); returns the number of entries dropped.

        The lookup cache is invalidated through the same version bump as any
        other mutation, so a rebooted switch starts cold.
        """
        dropped = self._count
        self._tiers.clear()
        self._neg_prios.clear()
        self._groups.clear()
        self._count = 0
        self._bump()
        return dropped

    # -- the entry-view API ----------------------------------------------
    # Everything outside this module (analysis, obs, controllers, tests)
    # reads the table through these accessors, never through the tiered
    # storage itself, so the storage layout can keep evolving single-file.
    def iter_entries(self) -> Iterator[FlowEntry]:
        """Iterate installed entries in (priority desc, insertion) order.

        No copy: the underlying flat view is memoized until the next table
        mutation.  Callers that mutate the table mid-iteration should use
        :attr:`entries` instead.
        """
        flat = self._flat
        if flat is None:
            flat = self._flat = [
                e
                for neg in self._neg_prios
                for e in self._tiers[-neg].order
            ]
        return iter(flat)

    @property
    def entries(self) -> list[FlowEntry]:
        """Snapshot of installed entries, priority order."""
        return list(self.iter_entries())

    def entries_at(self, priority: int) -> list[FlowEntry]:
        """Snapshot of the entries installed at one priority level."""
        tier = self._tiers.get(priority)
        return list(tier.order) if tier is not None else []

    def priorities(self) -> list[int]:
        """Installed priority levels, highest first."""
        return [-neg for neg in self._neg_prios]

    def conflicting_entries(
        self, match: Match, priority: Optional[int] = None
    ) -> list[FlowEntry]:
        """Installed entries whose match intersects ``match``.

        With ``priority`` given, only entries at that exact priority are
        returned — the set whose relative order decides the winner for
        packets in the intersection.  Used by the static verifier and by
        tests probing rule interactions.
        """
        pool = (
            self.iter_entries() if priority is None
            else self.entries_at(priority)
        )
        return [e for e in pool if e.match.intersects(match)]

    @property
    def groups(self) -> dict[int, GroupEntry]:
        """Snapshot of the group table."""
        return dict(self._groups)

    def __len__(self) -> int:
        return self._count

    # -- the data path -----------------------------------------------------
    def lookup(self, packet: Packet, in_port: int) -> Optional[FlowEntry]:
        """The highest-priority entry covering the packet, or None.

        Classifies through the lookup cache and the tuple-space indexes;
        agrees with the linear reference scan on every packet by
        construction (and by the hypothesis equivalence suite).  A profiled
        table (:meth:`set_profiler`) runs this same body inside one
        ``flowtable.lookup`` frame.
        """
        if self.cache_size <= 0:
            return self._lookup_indexed(packet, in_port)
        cache = self._lookup_cache
        if self._lookup_cache_version != self.version:
            cache.clear()
            self._lookup_cache_version = self.version
        # Builtin scalars only, so hashing and comparing the key never
        # enters a Python frame; positions fix each field's type, so the
        # key stays injective over the nine fields.
        key = (
            in_port,
            packet.eth_src.value,
            packet.eth_dst.value,
            packet.ip_src.value,
            packet.ip_dst.value,
            packet.proto,
            packet.sport,
            packet.dport,
            packet.mpls,
        )
        hit = cache.get(key, _CACHE_MISS)
        if hit is not _CACHE_MISS:
            self.cache_hits += 1
            return hit
        self.cache_misses += 1
        entry = self._lookup_indexed(packet, in_port)
        if len(cache) >= self.cache_size:
            cache.pop(next(iter(cache)))  # FIFO eviction of the oldest key
        cache[key] = entry
        return entry

    def _lookup_profiled(self, packet: Packet, in_port: int) -> Optional[FlowEntry]:
        """:meth:`lookup` bracketed in the profiler's frame, counting which
        tier answered; what :meth:`set_profiler` installs as ``lookup``."""
        prof = self._prof
        prof.enter("flowtable.lookup")
        try:
            hits_before = self.cache_hits
            entry = FlowTable.lookup(self, packet, in_port)
            prof.count(
                "flowtable.lookup",
                "path.cached" if self.cache_hits > hits_before else "path.indexed",
            )
            return entry
        finally:
            prof.exit()

    def _lookup_indexed(self, packet: Packet, in_port: int) -> Optional[FlowEntry]:
        """Probe the per-priority tuple-space indexes, highest tier first."""
        for neg in self._neg_prios:
            best = self._tiers[-neg].best_match(packet, in_port)
            if best is not None:
                return best
        return None

    def apply(
        self,
        packet: Packet,
        in_port: int,
        resolved: Optional[FlowEntry] = None,
        resolved_version: Optional[int] = None,
    ) -> tuple[list[tuple[int, Packet]], bool, Optional[FlowEntry]]:
        """Run the pipeline on ``packet``.

        Returns ``(emissions, to_controller, entry)`` where ``emissions`` is
        a list of ``(out_port, packet)`` pairs and ``entry`` is the matched
        rule (``None`` on table miss — the caller decides miss behaviour,
        usually punting to the controller like OVS's default).

        A caller that already classified this packet passes what
        :meth:`lookup` returned as ``resolved`` and the :attr:`version` it
        read at that moment as ``resolved_version``; the packet is
        classified again only if the table has changed since.

        Counter semantics: ``packet_count`` counts matched packets;
        ``byte_count`` counts the bytes the rule put on the wire — one
        post-rewrite size per emitted copy, so a partial-multicast group
        with *k* buckets charges all *k* copies.  A rule that emits nothing
        (drop, punt-only) charges the matched packet's ingress size.
        """
        if resolved_version == self.version:
            entry = resolved
        else:
            entry = self.lookup(packet, in_port)
        if entry is None:
            return [], True, None
        entry.packet_count += 1
        program = entry.program
        if program is not None:
            # header writes then one wire output: no action interpreter,
            # and the one copy keeps the packet's uid
            writes, port = program
            for name, value in writes:
                setattr(packet, name, value)
            out_pkt = packet.copy()
            entry.byte_count += out_pkt.size
            return [(port, out_pkt)], False, entry
        ingress_mpls = packet.mpls
        emissions, to_controller = self._run_actions(entry.actions, packet)
        if emissions:
            for _, out_pkt in emissions:
                entry.byte_count += out_pkt.size
        else:
            # The ingress size, derived on this rare path only: of the
            # fields a rule can set, just the MPLS shim changes ``size``.
            size = packet.size
            if (ingress_mpls is None) != (packet.mpls is None):
                size += MPLS_SHIM if packet.mpls is None else -MPLS_SHIM
            entry.byte_count += size
        return emissions, to_controller, entry

    def _run_actions(
        self, actions: Sequence[Action], packet: Packet
    ) -> tuple[list[tuple[int, Packet]], bool]:
        emissions: list[tuple[int, Packet]] = []
        to_controller = False
        emitted_current = False
        for action in actions:
            if isinstance(action, SetField):
                setattr(packet, action.field, action.value)
            elif isinstance(action, PushMpls):
                packet.mpls = action.label
            elif isinstance(action, PopMpls):
                packet.mpls = None
            elif isinstance(action, Output):
                if action.port == CONTROLLER_PORT:
                    # the pseudo-port is a punt, not a wire (the static
                    # verifier reads it the same way)
                    to_controller = True
                    continue
                # Emit a snapshot so later rewrites of the live packet do not
                # retroactively change what was sent.  The first emission
                # keeps the packet's uid (the common unicast case); further
                # emissions are genuinely new packets on the wire.
                out_pkt = packet.copy(next(self._uids) if emitted_current else None)
                emissions.append((action.port, out_pkt))
                emitted_current = True
            elif isinstance(action, Group):
                group = self._groups.get(action.group_id)
                if group is None:
                    raise TableMissError(f"group {action.group_id} not installed")
                for bucket in group.buckets:
                    bucket_pkt = packet.copy(next(self._uids))
                    sub_em, sub_ctrl = self._run_actions(bucket, bucket_pkt)
                    emissions.extend(sub_em)
                    to_controller = to_controller or sub_ctrl
                emitted_current = True
            elif isinstance(action, ToController):
                to_controller = True
            elif isinstance(action, Drop):
                break
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown action {action!r}")
        return emissions, to_controller
