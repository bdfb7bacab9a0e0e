"""Structured event tracing: the control plane's and the fabric's state log.

The controllers, the switches and the network report control-plane actions
and state changes through a shared :class:`TraceLog` — when one is
attached (``Network.attach_trace``); by default there is none, and every
emit site is one ``is None`` test.  The categories are ``mic.*``,
``ctrl.*``, ``switch.flowmod``, ``switch.table_full``, ``switch.state`` and
``link.state``, plus the two packet deaths no journey kind records
(``switch.dead_drop``, ``host.refused``).  Packets themselves are the
journey recorder's (:mod:`repro.obs.journey`): a hop, a transmission, a
delivery or a drop is one journey row, never a trace record.  The log is
sim-side — no in-model adversary reads it — and exists to be asserted on
by tests.

Recording is on the per-packet path, so a stored record is one flat tuple
``(time, category, node, keys, *values)`` where ``keys`` is the call
site's module-level constant tuple of field names.  A row holds only
scalars, strings and tuples of those; CPython's collector stops tracking
such a tuple the first time it looks at it, so retained history costs full
collections nothing.  :class:`TraceRecord` values are built from the rows
when somebody reads the log (or subscribes to it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = ["TraceRecord", "TraceLog"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    category: str
    node: str
    detail: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.detail[key]


def _record(row: tuple) -> TraceRecord:
    return TraceRecord(row[0], row[1], row[2], dict(zip(row[3], row[4:])))


@dataclass
class TraceLog:
    """Append-only trace store with optional category filtering.

    ``categories=None`` records everything; otherwise only the listed
    categories are kept.  ``subscribers`` receive every *kept* record
    synchronously, as a :class:`TraceRecord`.
    """

    categories: Optional[set[str]] = None
    subscribers: list[Callable[[TraceRecord], None]] = field(default_factory=list)
    _rows: list[tuple] = field(default_factory=list, init=False, repr=False)

    def enabled(self, category: str) -> bool:
        """True if records of this category are kept."""
        return self.categories is None or category in self.categories

    def emit(  # taint: sink
        self, time: float, category: str, node: str,
        keys: tuple[str, ...] = (), *values: Any,
    ) -> None:
        """Record one occurrence (and notify subscribers).

        ``keys`` names ``values`` position by position; pass a module-level
        constant so every row of a call site shares one tuple.
        """
        categories = self.categories
        if categories is not None and category not in categories:
            return
        row = (time, category, node, keys, *values)
        self._rows.append(row)
        if self.subscribers:
            rec = _record(row)
            for sub in self.subscribers:
                sub(rec)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked on every kept record."""
        self.subscribers.append(fn)

    # -- queries ----------------------------------------------------------
    @property
    def records(self) -> list[TraceRecord]:
        """Every kept record, oldest first (built from the rows per call)."""
        return [_record(row) for row in self._rows]

    def by_category(self, category: str) -> list[TraceRecord]:
        """All records of one category."""
        return [_record(row) for row in self._rows if row[1] == category]

    def by_node(self, node: str) -> list[TraceRecord]:
        """All records emitted by one node."""
        return [_record(row) for row in self._rows if row[2] == node]

    def select(self, **criteria: Any) -> Iterator[TraceRecord]:
        """Records whose detail matches all key/value criteria."""
        for rec in self:
            if all(rec.detail.get(k) == v for k, v in criteria.items()):
                yield rec

    def clear(self) -> None:
        """Drop all stored records."""
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record, self._rows)
