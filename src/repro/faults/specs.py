"""Declarative fault specifications.

A fault spec describes *what goes wrong and when* without touching the
simulator: link flaps (one-shot or periodic), switch crash/reboot cycles,
control-channel partitions, and probabilistic flow-mod loss/delay windows.
:class:`~repro.faults.schedule.FaultSchedule` compiles a list of specs into
sim events and the per-message fault plane the controller consults.

All times are absolute simulated seconds; a spec is a frozen value object,
so schedules serialize and compare cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

__all__ = [
    "ControlPartition",
    "FaultSpec",
    "LinkFlap",
    "RuleInstallLoss",
    "ShardCrash",
    "SwitchCrash",
]


def _check_seconds(name: str, value: float, positive: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite
    number of seconds, ``>= 0`` (``> 0`` when ``positive``).  nan, an
    infinity and an int past the float range are refused here, before any
    simulated work, rather than as a heap entry that never fires."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite or value < 0 or (positive and value == 0):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(
            f"{name} must be a finite number of seconds {bound}, got {value!r:.40}"
        )


@dataclass(frozen=True)
class LinkFlap:
    """Bring link a<->b down at ``at_s`` for ``down_for_s`` seconds.

    With ``period_s`` set, the flap repeats: ``count`` down/up cycles
    starting at ``at_s``, one every ``period_s`` seconds.  The up edge of
    each cycle is a heal event — parked flows retry on it.
    """

    a: str
    b: str
    at_s: float
    down_for_s: float
    period_s: Optional[float] = None
    count: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` on an impossible window or parameter."""
        _check_seconds("at_s", self.at_s)
        _check_seconds("down_for_s", self.down_for_s, positive=True)
        if self.period_s is not None:
            _check_seconds("period_s", self.period_s, positive=True)
        if self.count < 1:
            raise ValueError(f"count {self.count} must be >= 1")
        if self.period_s is not None and self.period_s <= self.down_for_s:
            raise ValueError(
                f"period {self.period_s} must exceed down_for {self.down_for_s}"
            )
        if self.period_s is None and self.count > 1:
            raise ValueError("count > 1 requires period_s")

    def windows(self) -> Iterator[tuple[float, float]]:
        """Yield each (down_at, up_at) cycle."""
        step = self.period_s if self.period_s is not None else 0.0
        for i in range(self.count):
            start = self.at_s + i * step
            yield start, start + self.down_for_s

    def describe(self) -> str:
        """One-line human description of this fault."""
        cycles = f" x{self.count} every {self.period_s}s" if self.count > 1 else ""
        return (
            f"link {self.a}<->{self.b} down at {self.at_s}s "
            f"for {self.down_for_s}s{cycles}"
        )


@dataclass(frozen=True)
class SwitchCrash:
    """Crash ``switch`` at ``at_s``; reboot ``down_for_s`` seconds later.

    The crash wipes the flow table, group table, and lookup cache; the
    chassis blackholes traffic until the reboot, when the controller
    re-syncs its rules from stored intent.
    """

    switch: str
    at_s: float
    down_for_s: float

    def validate(self) -> None:
        """Raise ``ValueError`` on an impossible window or parameter."""
        _check_seconds("at_s", self.at_s)
        _check_seconds("down_for_s", self.down_for_s, positive=True)

    def windows(self) -> Iterator[tuple[float, float]]:
        """Yield each ``(down_at, up_at)`` cycle."""
        yield self.at_s, self.at_s + self.down_for_s

    def describe(self) -> str:
        """One-line human description of this fault."""
        return (
            f"switch {self.switch} crash at {self.at_s}s, "
            f"reboot after {self.down_for_s}s"
        )


@dataclass(frozen=True)
class ControlPartition:
    """Partition ``switch`` from the controller for ``duration_s`` seconds.

    While active, packet-ins from (and packet-outs to) the switch are
    silently dropped.  The data plane keeps forwarding on installed rules.
    """

    switch: str
    at_s: float
    duration_s: float

    def validate(self) -> None:
        """Raise ``ValueError`` on an impossible window or parameter."""
        _check_seconds("at_s", self.at_s)
        _check_seconds("duration_s", self.duration_s, positive=True)

    def active(self, now: float, switch_name: str) -> bool:
        """True when this spec applies to ``switch_name`` at ``now``."""
        return (
            switch_name == self.switch
            and self.at_s <= now < self.at_s + self.duration_s
        )

    def describe(self) -> str:
        """One-line human description of this fault."""
        return (
            f"control partition of {self.switch} at {self.at_s}s "
            f"for {self.duration_s}s"
        )


@dataclass(frozen=True)
class RuleInstallLoss:
    """Probabilistic flow-mod loss/delay inside a time window.

    Each control message sent during [``at_s``, ``at_s + duration_s``) to a
    matching switch is independently lost with ``loss_prob``, and delayed
    by ``extra_delay_s`` with ``delay_prob``.  ``switches=None`` matches
    every switch.  Lost mods are re-driven by the controller's ack/retry
    machinery.
    """

    at_s: float
    duration_s: float
    loss_prob: float = 0.0
    delay_prob: float = 0.0
    extra_delay_s: float = 0.0
    switches: Optional[tuple[str, ...]] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on an impossible window or parameter."""
        _check_seconds("at_s", self.at_s)
        _check_seconds("duration_s", self.duration_s, positive=True)
        for p in (self.loss_prob, self.delay_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} out of [0, 1]")
        _check_seconds("extra_delay_s", self.extra_delay_s)
        if self.loss_prob == 0.0 and self.delay_prob == 0.0:
            raise ValueError("loss window with neither loss nor delay")

    def active(self, now: float, switch_name: str) -> bool:
        """True when this spec applies to ``switch_name`` at ``now``."""
        if not self.at_s <= now < self.at_s + self.duration_s:
            return False
        return self.switches is None or switch_name in self.switches

    def describe(self) -> str:
        """One-line human description of this fault."""
        scope = "all switches" if self.switches is None else ",".join(self.switches)
        parts = []
        if self.loss_prob:
            parts.append(f"loss p={self.loss_prob}")
        if self.delay_prob:
            parts.append(f"+{self.extra_delay_s}s delay p={self.delay_prob}")
        return (
            f"flow-mod {' '.join(parts)} on {scope} at {self.at_s}s "
            f"for {self.duration_s}s"
        )


@dataclass(frozen=True)
class ShardCrash:
    """Crash controller shard ``shard`` at ``at_s``.

    Requires the sharded control plane (``deploy_mic(shards=N)`` with
    N ≥ 2): the surviving owner of each orphaned channel's edge switch
    adopts the channel from its stored compiled intents and resumes
    repair/park/resync, so no channel dies with its shard.  With
    ``down_for_s`` set the shard rejoins that many seconds later
    (adopted channels do not fail back); ``None`` leaves it dead.
    """

    shard: int
    at_s: float
    down_for_s: Optional[float] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on an impossible window or parameter."""
        if self.shard < 0:
            raise ValueError(f"shard {self.shard} must be >= 0")
        _check_seconds("at_s", self.at_s)
        if self.down_for_s is not None:
            _check_seconds("down_for_s", self.down_for_s, positive=True)

    def windows(self) -> Iterator[tuple[float, Optional[float]]]:
        """Yield the single ``(down_at, up_at_or_None)`` cycle."""
        up = None if self.down_for_s is None else self.at_s + self.down_for_s
        yield self.at_s, up

    def describe(self) -> str:
        """One-line human description of this fault."""
        rejoin = (
            f", rejoin after {self.down_for_s}s"
            if self.down_for_s is not None
            else " (permanent)"
        )
        return f"controller shard {self.shard} crash at {self.at_s}s{rejoin}"


FaultSpec = Union[LinkFlap, SwitchCrash, ControlPartition, RuleInstallLoss, ShardCrash]
