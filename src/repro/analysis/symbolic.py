"""Symbolic packet headers and rewrite-aware action execution.

The verifier reasons about *classes* of packets instead of injecting real
ones (the VeriFlow idea applied to MIC's match lattice).  A
:class:`SymbolicHeader` assigns each matchable field either a concrete value
or :data:`ANY`; the MPLS field has the extra concrete state ``None`` ("no
shim"), mirroring :class:`repro.net.packet.Packet`.

Matching comes in two strengths:

* :func:`could_match` — some concrete packet in the class matches the rule,
* :func:`must_match` — every concrete packet in the class matches the rule.

Traversal refines a header through the rules it follows
(:func:`refine`) and pushes it through action lists
(:func:`apply_actions`) without touching any switch state or counters —
the data plane is never perturbed by verification.

Which rules a header class can hit is answered by a :class:`CandidateIndex`
— the table's entries bucketed by their tuple-space ``(pattern, key)``
coordinates — not by testing the header against every rule; the same index
finds the intersecting rule pairs the table-local checks compare.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Sequence

from ..net.flowtable import (
    CONTROLLER_PORT,
    Action,
    Drop,
    FlowEntry,
    FlowTable,
    Group,
    GroupEntry,
    Match,
    Output,
    PopMpls,
    PushMpls,
    SetField,
    ToController,
)

__all__ = [
    "ANY",
    "SymbolicHeader",
    "could_match",
    "must_match",
    "refine",
    "apply_actions",
    "SymbolicResult",
    "CandidateIndex",
]


class _Any:
    """Singleton wildcard marker for one symbolic field."""

    _instance: Optional["_Any"] = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


#: "this field may hold any value" (including, for mpls, "no shim")
ANY = _Any()

#: header fields a Match can constrain, minus the in_port metadata field
_HEADER_FIELDS = (
    "eth_src",
    "eth_dst",
    "ip_src",
    "ip_dst",
    "proto",
    "sport",
    "dport",
    "mpls",
)


class SymbolicHeader(NamedTuple):
    """A set of packet headers: concrete values and :data:`ANY` wildcards.

    ``in_port`` travels with the header because OpenFlow matching treats the
    ingress port as just another match field; emissions replace it with the
    peer's concrete port.

    The value *is* a tuple of its nine fields, so it hashes and compares as
    one and serves directly as the visited-state key of a traversal.
    """

    eth_src: Any = ANY
    eth_dst: Any = ANY
    ip_src: Any = ANY
    ip_dst: Any = ANY
    proto: Any = ANY
    sport: Any = ANY
    dport: Any = ANY
    mpls: Any = ANY  # ANY | None (no shim) | int label
    in_port: Any = ANY

    def key(self) -> "SymbolicHeader":
        """Hashable identity for visited-state tracking: the header itself."""
        return self

    def with_field(self, name: str, value: Any) -> "SymbolicHeader":
        """A copy with one field replaced (a single positional rebuild)."""
        i = _POSITION[name]
        return SymbolicHeader._make(self[:i] + (value,) + self[i + 1:])

    def describe(self) -> str:
        """Compact rendering listing only the concrete fields."""
        parts = [
            f"{f}={v}" for f, v in zip(self._fields, self) if v is not ANY
        ]
        return "Hdr(" + ", ".join(parts) + ")" if parts else "Hdr(*)"

    __repr__ = describe


#: field name -> position in a :class:`SymbolicHeader`
_POSITION = {name: i for i, name in enumerate(SymbolicHeader._fields)}


def _field_could(constraint: Any, value: Any, is_mpls: bool) -> bool:
    if constraint is None:  # wildcard match field
        return True
    if value is ANY:
        return True
    if is_mpls and constraint == Match.NO_MPLS:
        return value is None
    return value == constraint


def _field_must(constraint: Any, value: Any, is_mpls: bool) -> bool:
    if constraint is None:
        return True
    if value is ANY:
        return False
    if is_mpls and constraint == Match.NO_MPLS:
        return value is None
    return value == constraint


def could_match(match: Match, hdr: SymbolicHeader) -> bool:
    """True iff some concrete packet in ``hdr`` matches ``match``."""
    if not _field_could(match.in_port, hdr.in_port, False):
        return False
    for f in _HEADER_FIELDS:
        if not _field_could(getattr(match, f), getattr(hdr, f), f == "mpls"):
            return False
    return True


def must_match(match: Match, hdr: SymbolicHeader) -> bool:
    """True iff every concrete packet in ``hdr`` matches ``match``."""
    if not _field_must(match.in_port, hdr.in_port, False):
        return False
    for f in _HEADER_FIELDS:
        if not _field_must(getattr(match, f), getattr(hdr, f), f == "mpls"):
            return False
    return True


def refine(match: Match, hdr: SymbolicHeader) -> SymbolicHeader:
    """Narrow ``hdr`` to the packets that also satisfy ``match``.

    Caller must have established :func:`could_match` first; concrete header
    fields are left alone, wildcards take the match's constraint.
    """
    values: Optional[list] = None
    for f, constraint in zip(*match._index):
        i = _POSITION[f]
        if hdr[i] is ANY:
            if values is None:
                values = list(hdr)
            values[i] = constraint  # "no shim" is already None in the key
    return hdr if values is None else SymbolicHeader._make(values)


def header_from_match(match: Match) -> SymbolicHeader:
    """The symbolic header class described by a rule's match."""
    return refine(match, SymbolicHeader())


@dataclass
class SymbolicResult:
    """Outcome of pushing a header through one action list."""

    emissions: list[tuple[int, SymbolicHeader]]
    punted: bool = False
    dropped: bool = False
    missing_group: Optional[int] = None


def apply_actions(
    actions: Sequence[Action],
    hdr: SymbolicHeader,
    groups: dict[int, GroupEntry],
) -> SymbolicResult:
    """Symbolically execute ``actions`` on ``hdr``.

    Mirrors :meth:`repro.net.flowtable.FlowTable._run_actions` — sequential
    ``set-field`` rewrites, per-``output`` snapshots, type-*all* group
    expansion on a copy per bucket — but over header classes and with no
    side effects on the table.
    """
    result = SymbolicResult(emissions=[])
    current = hdr
    saw_output = False
    for action in actions:
        if isinstance(action, SetField):
            if action.field == "ttl":
                continue  # not matchable; irrelevant to classification
            current = current.with_field(action.field, action.value)
        elif isinstance(action, PushMpls):
            current = current.with_field("mpls", action.label)
        elif isinstance(action, PopMpls):
            current = current.with_field("mpls", None)
        elif isinstance(action, Output):
            if action.port == CONTROLLER_PORT:
                result.punted = True
            else:
                result.emissions.append((action.port, current))
            saw_output = True
        elif isinstance(action, Group):
            group = groups.get(action.group_id)
            if group is None:
                result.missing_group = action.group_id
            else:
                for bucket in group.buckets:
                    sub = apply_actions(bucket, current, groups)
                    result.emissions.extend(sub.emissions)
                    result.punted = result.punted or sub.punted
                    if sub.missing_group is not None:
                        result.missing_group = sub.missing_group
            saw_output = True
        elif isinstance(action, ToController):
            result.punted = True
        elif isinstance(action, Drop):
            result.dropped = True
            break
    if not saw_output and not result.punted and not result.dropped:
        # An action list with no output at all silently discards the packet.
        result.dropped = True
    return result


class CandidateIndex:
    """One table's entries, indexed by their tuple-space coordinates.

    Built from a snapshot of the table (so it never outlives the verifier
    run that made it): ``entries`` holds the rules in *rank* order —
    priority-descending, insertion order within a priority, exactly as
    :meth:`FlowTable.iter_entries` yields them — and every rank is bucketed
    under its rule's ``Match._index`` pattern, the tuple of field names the
    match constrains.

    A header class can only disagree with a rule on fields that are concrete
    in *both*, so for a header of a given *shape* (which of its fields are
    concrete) each pattern needs one hash probe: a *projection* of the
    pattern's keys onto the fields the header pins down, mapping the
    projected values to the ascending ranks that carry them.  Projections
    are built on first use and kept per ``(pattern, projected fields)``.
    When the header pins the whole pattern, every rank the probe returns
    matches *every* packet of the class (the :func:`must_match` strength).

    Ranks are plain sorted lists and results are merged by rank, so nothing
    an answer depends on is iterated in hash order.
    """

    def __init__(self, table: FlowTable) -> None:
        #: the table's entries in rank order
        self.entries: list[FlowEntry] = list(table.iter_entries())
        #: snapshot of the table's groups (id -> :class:`GroupEntry`)
        self.groups: dict[int, GroupEntry] = table.groups
        # pattern -> (ascending ranks, their keys)
        self._buckets: dict[tuple[str, ...], tuple[list[int], list[tuple]]] = {}
        for rank, entry in enumerate(self.entries):
            pattern, key = entry.match._index
            ranks, keys = self._buckets.setdefault(pattern, ([], []))
            ranks.append(rank)
            keys.append(key)
        # (pattern, kept key positions) -> {projected key -> ascending ranks}
        self._projections: dict[tuple, dict[tuple, list[int]]] = {}
        # header shape -> per pattern (projection, header positions, whole?)
        self._plans: dict[tuple, list[tuple[dict, tuple[int, ...], bool]]] = {}

    def _projection(
        self, pattern: tuple[str, ...], kept: tuple[int, ...]
    ) -> dict[tuple, list[int]]:
        """Ranks of ``pattern`` grouped by their key's values at ``kept``."""
        projection = self._projections.get((pattern, kept))
        if projection is None:
            projection = self._projections[(pattern, kept)] = {}
            for rank, key in zip(*self._buckets[pattern]):
                projection.setdefault(
                    tuple([key[j] for j in kept]), []
                ).append(rank)
        return projection

    def _hits(self, hdr: SymbolicHeader) -> tuple[list[list[int]], int]:
        """Per pattern, the ascending ranks ``hdr`` could match, plus the
        first rank it must match (``len(entries)`` when there is none)."""
        shape = tuple([v is ANY for v in hdr])
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = []
            for pattern in self._buckets:
                kept = tuple([
                    j for j, f in enumerate(pattern)
                    if not shape[_POSITION[f]]
                ])
                plan.append((
                    self._projection(pattern, kept),
                    tuple([_POSITION[pattern[j]] for j in kept]),
                    len(kept) == len(pattern),
                ))
        hits = []
        cut = len(self.entries)
        for projection, positions, whole in plan:
            ranks = projection.get(tuple([hdr[i] for i in positions]))
            if ranks is not None:
                hits.append(ranks)
                if whole and ranks[0] < cut:
                    cut = ranks[0]
        return hits, cut

    def winner(self, hdr: SymbolicHeader) -> Optional[FlowEntry]:
        """The first entry some packet of ``hdr`` could hit — for a
        fully-concrete header, the entry it hits — or None on table miss."""
        hits, _cut = self._hits(hdr)
        if not hits:
            return None
        return self.entries[min([ranks[0] for ranks in hits])]

    def candidates(self, hdr: SymbolicHeader) -> list[FlowEntry]:
        """Entries some packet of ``hdr`` could hit, in priority order.

        The list ends at the first entry that *must* match: everything below
        it is unreachable for this header class.
        """
        hits, cut = self._hits(hdr)
        entries = self.entries
        return [
            entries[rank]
            for rank in sorted([
                rank
                for ranks in hits
                for rank in ranks[:bisect_right(ranks, cut)]
            ])
        ]

    def intersecting_pairs(self) -> list[tuple[int, int]]:
        """Rank pairs ``(i, j)``, ``i < j``, whose matches intersect, sorted.

        Two matches intersect iff they agree on every field both constrain,
        so each pair of patterns is a hash join on their shared fields; the
        pairs come back in the order an all-pairs scan would visit them.
        """
        pairs: list[tuple[int, int]] = []
        patterns = list(self._buckets)
        for n, left in enumerate(patterns):
            for right in patterns[n:]:
                left_kept = tuple([
                    j for j, f in enumerate(left) if f in right
                ])
                right_kept = tuple([
                    j for j, f in enumerate(right) if f in left
                ])
                projection = self._projection(right, right_kept)
                for i, key in zip(*self._buckets[left]):
                    for j in projection.get(
                        tuple([key[k] for k in left_kept]), ()
                    ):
                        if left is not right:
                            pairs.append((i, j) if i < j else (j, i))
                        elif i < j:
                            pairs.append((i, j))
        pairs.sort()
        return pairs
