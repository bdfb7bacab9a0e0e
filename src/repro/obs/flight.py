"""Flight recorder: bounded event rings that dump on anomaly triggers.

Aircraft-style black box for the data plane.  The recorder keeps the last
*N* journey events per location (node or directed channel) in fixed-size
ring buffers, so memory stays bounded no matter how long the run is, and
when an **anomaly trigger** fires it snapshots every ring into a
:class:`FlightDump` — the events *leading up to* the anomaly, which the
post-hoc journey log alone cannot give you without retaining everything.

The recorder rides on :class:`~repro.obs.journey.JourneyRecorder` hooks and
sees every event regardless of the journey sampling decision (arming a
flight recorder makes the hooks process every packet — retention stays
bounded, and the run dispatches exactly the same events either way).  The
journey recorder's one sink appends each record straight into its
location's ring and calls :meth:`FlightRecorder.fire` only for kinds in
:attr:`FlightRecorder.armed_kinds`.  A ring holds what the journey
recorder keeps for the event (its record's offset in the journey log when
sampled, its row otherwise) and decodes it through that recorder only
when read.

Triggers are contracted in :data:`ANOMALY_TRIGGERS` and doc-diffed both
ways, like the metrics contract.  ``switch.miss`` is deliberately *not* a
default trigger: reactive MIC deployments punt control packets to the MC
by design, and a default-armed recorder must stay silent on a healthy run.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .journey import JourneyEvent

if TYPE_CHECKING:  # pragma: no cover
    from .journey import JourneyRecorder

__all__ = [
    "AnomalyTrigger",
    "ANOMALY_TRIGGERS",
    "DEFAULT_TRIGGERS",
    "FlightDump",
    "FlightRecorder",
    "format_trigger_table",
]


@dataclass(frozen=True)
class AnomalyTrigger:
    """One contracted anomaly trigger: what fires it and whether default-armed."""

    name: str
    event_kind: str
    default: bool
    condition: str


ANOMALY_TRIGGERS: tuple[AnomalyTrigger, ...] = (
    AnomalyTrigger(
        "drop", "link.drop", True,
        "any channel tail-drops a packet (backlog over budget or link down)",
    ),
    AnomalyTrigger(
        "ttl_expired", "switch.ttl_expired", True,
        "a packet dies of TTL inside a switch pipeline (loop symptom)",
    ),
    AnomalyTrigger(
        "divergence", "switch.divergence", True,
        "with intent armed, a MN hop's emissions carry none of the "
        "MC-planned out-tuples for the observed in-tuple",
    ),
    AnomalyTrigger(
        "queue_depth", "link.tx", True,
        "a channel accepts a packet while its backlog exceeds "
        "``queue_threshold_bytes`` (disarmed when the threshold is None, "
        "the default)",
    ),
    AnomalyTrigger(
        "link_down", "link.down", True,
        "a directed channel is administratively brought down (fault "
        "injection or scripted failure) — snapshots the traffic leading "
        "up to the outage",
    ),
    AnomalyTrigger(
        "miss", "switch.miss", False,
        "a table miss punts a packet to the controller — opt-in, because "
        "reactive deployments punt control packets by design",
    ),
)

_TRIGGERS_BY_NAME = {t.name: t for t in ANOMALY_TRIGGERS}

#: trigger names armed when ``FlightRecorder(triggers=...)`` is not given
DEFAULT_TRIGGERS: frozenset[str] = frozenset(
    t.name for t in ANOMALY_TRIGGERS if t.default
)


def format_trigger_table() -> str:
    """Render the anomaly-trigger contract as the markdown table docs embed."""
    lines = [
        "| trigger | on event | default | fires when |",
        "|---|---|---|---|",
    ]
    for t in ANOMALY_TRIGGERS:
        default = "armed" if t.default else "opt-in"
        lines.append(
            f"| `{t.name}` | `{t.event_kind}` | {default} | {t.condition} |"
        )
    return "\n".join(lines)


@dataclass
class FlightDump:
    """One anomaly snapshot: the trigger plus every ring's retained events.

    Holds the entries as the rings held them; :attr:`cause`, :attr:`events`
    and :attr:`time_s` decode them (``decode``, the recording
    :meth:`~repro.obs.journey.JourneyRecorder.decode`) into
    :class:`~repro.obs.journey.JourneyEvent` values on read.
    """

    trigger: str
    cause_record: Any
    records: dict[str, tuple]
    decode: Callable[[Any], tuple] = field(repr=False, compare=False)

    @property
    def cause(self) -> JourneyEvent:
        """The event that fired the trigger."""
        return JourneyEvent.from_row(self.decode(self.cause_record))

    @property
    def time_s(self) -> float:
        """When the trigger fired: the cause's time."""
        return self.cause.time_s

    @property
    def events(self) -> dict[str, list[JourneyEvent]]:
        """Every ring's retained events at dump time, keyed by location."""
        decode = self.decode
        return {
            where: [JourneyEvent.from_row(decode(record)) for record in ring]
            for where, ring in self.records.items()
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (what journey dumps embed under ``flight_dumps``)."""
        return {
            "time_s": self.time_s,
            "trigger": self.trigger,
            "cause": self.cause.to_dict(),
            "events": {
                where: [e.to_dict() for e in ring]
                for where, ring in self.events.items()
            },
        }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class FlightRecorder:
    """Bounded per-location rings of journey events, dumped on anomalies.

    Parameters
    ----------
    capacity:
        Events retained per location (node name or directed channel name),
        an int in [1, ``sys.maxsize``].
    triggers:
        Trigger names to arm (see :data:`ANOMALY_TRIGGERS`); defaults to
        every default-armed trigger.  Unknown names raise ``ValueError``.
    queue_threshold_bytes:
        Backlog level at which the ``queue_depth`` trigger fires, finite
        and >= 0; ``None`` (default) disarms it even when listed.
    max_dumps:
        Dumps retained before further triggers only count
        (:attr:`dumps_suppressed`) — an anomaly storm must not unbound
        memory.  An int >= 0.

    A bad number is a ``ValueError`` naming its argument, here, before any
    simulated work.
    """

    def __init__(
        self,
        capacity: int = 64,
        triggers: Optional[Iterable[str]] = None,
        queue_threshold_bytes: Optional[int] = None,
        max_dumps: int = 8,
    ):
        if not (_is_int(capacity) and 1 <= capacity <= sys.maxsize):
            raise ValueError(
                f"capacity {capacity!r} must be an int in [1, {sys.maxsize}]"
            )
        if not (_is_int(max_dumps) and max_dumps >= 0):
            raise ValueError(f"max_dumps {max_dumps!r} must be an int >= 0")
        if queue_threshold_bytes is not None and not (
            0 <= queue_threshold_bytes < math.inf
        ):
            raise ValueError(
                f"queue_threshold_bytes {queue_threshold_bytes!r} must be "
                "None or finite and >= 0"
            )
        names = DEFAULT_TRIGGERS if triggers is None else frozenset(triggers)
        unknown = names - set(_TRIGGERS_BY_NAME)
        if unknown:
            raise ValueError(
                f"unknown triggers {sorted(unknown)}; "
                f"known: {sorted(_TRIGGERS_BY_NAME)}"
            )
        self.capacity = capacity
        self.triggers = names
        self.queue_threshold_bytes = queue_threshold_bytes
        self.max_dumps = max_dumps
        #: location -> the last ``capacity`` journey events seen there (log
        #: offsets or rows); the bound journey recorder appends directly
        self.rings: defaultdict[str, deque] = defaultdict(
            partial(deque, maxlen=capacity)
        )
        #: event kind -> the armed trigger it can fire.  ``link.tx`` is in
        #: only when a ``queue_threshold_bytes`` arms ``queue_depth``.
        self.armed_kinds = {
            _TRIGGERS_BY_NAME[n].event_kind: n
            for n in names
            if n != "queue_depth" or queue_threshold_bytes is not None
        }
        self.dumps: list[FlightDump] = []
        self.dumps_suppressed = 0
        self.recorder: Optional["JourneyRecorder"] = None

    def bind(self, recorder: "JourneyRecorder") -> None:
        """Called by the journey recorder adopting this flight recorder.

        The rings hold offsets into the previous recorder's log, which only
        it can decode: they are decoded into rows here.  One still attached
        keeps recording into the rings, so it must be detached first.
        """
        held = self.recorder
        if held is not None and held is not recorder:
            if held.attached:
                raise ValueError(
                    f"this flight recorder serves {held!r}, which is still "
                    "attached; detach it first"
                )
            for ring in self.rings.values():
                rows = [held.decode(record) for record in ring]
                ring.clear()
                ring.extend(rows)
        self.recorder = recorder

    def fire(self, trigger: str, cause: Any) -> None:
        """A record of an armed kind was ringed: dump every ring, unless the
        event is under the ``queue_depth`` threshold or dumps are used up."""
        recorder = self.recorder
        if trigger == "queue_depth" and (
            recorder.field(cause, "backlog_bytes") < self.queue_threshold_bytes
        ):
            return
        if len(self.dumps) >= self.max_dumps:
            self.dumps_suppressed += 1
            return
        self.dumps.append(FlightDump(
            trigger, cause, {w: tuple(r) for w, r in self.rings.items()},
            recorder.decode,
        ))

    def ring(self, where: str) -> list[JourneyEvent]:
        """The currently retained events at one location (oldest first)."""
        ring = self.rings.get(where, ())
        if not ring:
            return []
        decode = self.recorder.decode
        return [JourneyEvent.from_row(decode(record)) for record in ring]

    def locations(self) -> list[str]:
        """Every location that has retained at least one event."""
        return sorted(self.rings)

    def __len__(self) -> int:
        return len(self.dumps)
