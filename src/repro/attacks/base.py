"""The pluggable ``Attack`` protocol and registry.

An :class:`Attack` is one adversary the tournament can field against an
anonymity strategy (:mod:`repro.anonymity`).  Each attack declares, as
class attributes, the *vantage* it needs (which taps), the *signal* it
exploits, and what ground truth it is *scored against* — those three
columns are doc-diffed into ``docs/anonymity.md`` exactly like the
metrics contract, so an attack exists in the doc iff it exists in code.

An attack's :meth:`~Attack.run` receives an :class:`AttackContext` — the
finished tournament scenario: the deployment, the per-channel ground
truth, every observation point, and the journey linkage — and returns an
:class:`AttackResult` whose ``accuracy`` is the probability the adversary
links correctly, **measured against simulator ground truth**, never the
attacker's own confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Type, Union

from ..obs.seam import wrap
from .observer import ObservationPoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.deployment import MicDeployment
    from ..obs.journey import Journey

__all__ = [
    "ATTACKS",
    "Attack",
    "AttackContext",
    "AttackResult",
    "ChannelTruth",
    "DrawLog",
    "format_attack_table",
    "get_attack",
    "register_attack",
]


@dataclass(frozen=True)
class ChannelTruth:
    """Ground truth for one tournament channel (the adversary's quarry)."""

    channel_id: int
    initiator: str  # host name
    responder: str
    initiator_ip: str
    responder_ip: str
    service_port: int
    payload_bytes: int  # true bytes the initiator pushed into the channel
    first_mn: str  # switch name of the first mimic node
    initiator_edge: str  # edge switch the initiator hangs off
    responder_edge: str


class DrawLog:
    """Draw-time ground truth for address-linking attacks: ``signatures``
    maps every m-address a strategy's ``draw_segment`` returns (repairs,
    rotations and FRVM aliases included), ``(src, dst, sport, dport,
    mpls)``, to its flow id.  It wraps the strategy through
    :mod:`repro.obs.seam`: an unattacked deployment books nothing."""

    def __init__(self) -> None:
        self.signatures: dict[tuple, int] = {}

    def attach(self, strategy) -> "DrawLog":
        """Record every address ``strategy`` draws from now on."""
        wrap(self, "draw_segment", _log_draw, [strategy])
        return self


def _log_draw(link, seg_nodes, pins, mn_name, flow_id, *rest):
    addr = link[2](seg_nodes, pins, mn_name, flow_id, *rest)
    key = (addr.src_ip.text, addr.dst_ip.text, addr.sport, addr.dport, addr.mpls)
    link[0].signatures[key] = flow_id
    return addr


@dataclass
class AttackContext:
    """Everything an adversary may consult after a tournament scenario.

    ``points`` maps switch name → :class:`ObservationPoint`; the scenario
    taps every channel's first MN plus both edge switches, so an attack
    picks its vantage by name via :meth:`point`.  ``journeys`` is the
    recorder's content-tag → :class:`~repro.obs.journey.Journey` linkage
    (exact decoy/true-copy labels).  ``signatures`` is the scenario's
    :class:`DrawLog` map, the draw-time ground truth for address-linking
    attacks.
    """

    dep: "MicDeployment"
    strategy_name: str
    channels: list[ChannelTruth]
    points: dict[str, ObservationPoint]
    journeys: dict[int, "Journey"] = field(default_factory=dict)
    signatures: dict[tuple, int] = field(default_factory=dict)

    def point(self, switch_name: str) -> ObservationPoint:
        """The tap on ``switch_name`` (KeyError when not compromised)."""
        return self.points[switch_name]


@dataclass(frozen=True)
class AttackResult:
    """One attack's measured outcome against one strategy."""

    attack: str
    accuracy: float  # P(adversary links correctly), in [0, 1]
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON form for the tournament frontier."""
        return {
            "attack": self.attack,
            "accuracy": self.accuracy,
            "details": dict(sorted(self.details.items())),
        }


class Attack:
    """Base class for tournament adversaries.

    Subclasses set the doc-table attributes and implement :meth:`run`.
    Registration is explicit via :func:`register_attack` so importing the
    module is enough to field the attack in every tournament.
    """

    #: registry key and frontier JSON key
    name: str = "?"
    #: which taps the adversary needs ("first MN", "initiator edge", ...)
    vantage: str = "?"
    #: the observable the attack exploits
    signal: str = "?"
    #: the simulator ground truth the accuracy is measured against
    scored_against: str = "?"

    def run(self, ctx: AttackContext) -> AttackResult:
        """Execute against one scenario; return the scored result."""
        raise NotImplementedError


#: name -> Attack subclass, in registration (== doc table) order
ATTACKS: dict[str, Type[Attack]] = {}


def register_attack(cls: Type[Attack]) -> Type[Attack]:
    """Class decorator: add an :class:`Attack` to the registry."""
    if cls.name in ATTACKS:
        raise ValueError(f"duplicate attack name {cls.name!r}")
    ATTACKS[cls.name] = cls
    return cls


def get_attack(spec: Union[str, Attack, Type[Attack]]) -> Attack:
    """Resolve an attack instance from a name, class, or instance."""
    if isinstance(spec, Attack):
        return spec
    if isinstance(spec, type) and issubclass(spec, Attack):
        return spec()
    if isinstance(spec, str):
        try:
            return ATTACKS[spec]()
        except KeyError:
            known = ", ".join(sorted(ATTACKS))
            raise ValueError(f"unknown attack {spec!r} (known: {known})") from None
    raise TypeError(f"cannot resolve an attack from {spec!r}")


def format_attack_table(attacks: Optional[list] = None) -> str:
    """The markdown attack table ``docs/anonymity.md`` embeds."""
    rows = [
        "| attack | vantage | signal | scored against |",
        "|---|---|---|---|",
    ]
    for cls in (attacks if attacks is not None else ATTACKS.values()):
        rows.append(
            f"| `{cls.name}` | {cls.vantage} | {cls.signal} "
            f"| {cls.scored_against} |"
        )
    return "\n".join(rows)
