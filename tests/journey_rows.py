"""Per-packet facts read from journey rows.

The journey recorder (:mod:`repro.obs.journey`) is the simulator's one
per-packet record; control-plane actions and state changes live in the
controllers' counters and spans.  At ``sample_rate=1.0`` the journey holds every per-packet fact a
test asks about:

* a forwarded copy is a ``switch.egress`` row, which carries the emitted
  header (the hop's ``in_port`` is on its ``switch.ingress`` row);
* a packet's header on a link is the ``header`` of its uid's latest
  ``switch.egress`` row;
* an in-flight loss is a ``link.drop`` that follows a ``link.tx`` of the
  same uid on the same channel.
"""

from repro.obs.journey import JourneyEvent


def events(rec, kind=None) -> list[JourneyEvent]:
    """The recorder's rows (of one ``kind``, when given), oldest first."""
    return [
        JourneyEvent.from_row(row) for row in rec.rows()
        if kind is None or row[1] == kind
    ]


def link_headers(rec) -> list[tuple[JourneyEvent, tuple]]:
    """``(link.tx event, header on the wire)`` for every transmission of a
    packet a switch emitted: the header of its uid's latest egress."""
    latest: dict[int, tuple] = {}
    out = []
    for ev in events(rec):
        if ev.kind == "switch.egress":
            latest[ev.uid] = ev["header"]
        elif ev.kind == "link.tx" and ev.uid in latest:
            out.append((ev, latest[ev.uid]))
    return out


def in_flight_drops(rec) -> list[JourneyEvent]:
    """The ``link.drop`` events of packets their channel had accepted."""
    sent: set[tuple[int, str]] = set()
    out = []
    for ev in events(rec):
        if ev.kind == "link.tx":
            sent.add((ev.uid, ev.where))
        elif ev.kind == "link.drop" and (ev.uid, ev.where) in sent:
            out.append(ev)
    return out


def channel_dst(where: str) -> str:
    """The receiving node of a directed channel name ``a[1]->b[2]``."""
    return where.split("->")[1].split("[")[0]
