"""Seeded fault schedule: compile declarative specs into sim events.

:class:`FaultSchedule` owns the *entire* injection machinery:

* timed state changes (link flaps, switch crash/reboot) become
  ``call_at`` events on the network's simulator;
* per-message faults (flow-mod loss/delay, control partitions) are decided
  at send time through the fault-plane protocol the
  :class:`~repro.sdn.controller.Controller` consults —
  :meth:`flowmod_fate` and :meth:`packet_in_blocked`.

Determinism: the schedule draws from its own ``random.Random(seed)`` and
consumption happens in simulator event order, so the same seed over the
same scenario reproduces the same faults bit for bit.  An **empty**
schedule is inert: ``attach`` schedules nothing and leaves the
controller's fault plane unset, so the run dispatches exactly the events
of a run with no schedule at all (test-enforced, like the observability
layer's disabled path).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from .specs import (
    ControlPartition,
    FaultSpec,
    LinkFlap,
    RuleInstallLoss,
    ShardCrash,
    SwitchCrash,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from ..sdn.controller import Controller

__all__ = ["FaultSchedule"]


class FaultSchedule:
    """A seeded, declarative fault plan for one simulation run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.specs: list[FaultSpec] = []
        self.net: Optional["Network"] = None
        self.ctrl: Optional["Controller"] = None
        self._loss_specs: list[RuleInstallLoss] = []
        self._partitions: list[ControlPartition] = []
        self.injected_events = 0
        self.flowmods_lost = 0
        self.flowmods_delayed = 0

    # -- building -----------------------------------------------------------
    def add(self, spec: FaultSpec) -> FaultSpec:
        """Validate and append one spec (builder helpers call this)."""
        if self.net is not None:
            raise RuntimeError("schedule already attached; add specs first")
        spec.validate()
        self.specs.append(spec)
        if isinstance(spec, RuleInstallLoss):
            self._loss_specs.append(spec)
        elif isinstance(spec, ControlPartition):
            self._partitions.append(spec)
        return spec

    def link_flap(self, a: str, b: str, at_s: float, down_for_s: float,
                  period_s: Optional[float] = None, count: int = 1) -> LinkFlap:
        """Add a one-shot or periodic link flap."""
        return self.add(LinkFlap(a, b, at_s, down_for_s, period_s, count))  # type: ignore[return-value]

    def switch_crash(self, switch: str, at_s: float, down_for_s: float) -> SwitchCrash:
        """Add a switch crash + reboot cycle."""
        return self.add(SwitchCrash(switch, at_s, down_for_s))  # type: ignore[return-value]

    def control_partition(self, switch: str, at_s: float,
                          duration_s: float) -> ControlPartition:
        """Add a control-channel partition window for one switch."""
        return self.add(ControlPartition(switch, at_s, duration_s))  # type: ignore[return-value]

    def rule_install_loss(self, at_s: float, duration_s: float,
                          loss_prob: float = 0.0, delay_prob: float = 0.0,
                          extra_delay_s: float = 0.0,
                          switches: Optional[tuple[str, ...]] = None) -> RuleInstallLoss:
        """Add a probabilistic flow-mod loss/delay window."""
        return self.add(RuleInstallLoss(
            at_s, duration_s, loss_prob, delay_prob, extra_delay_s, switches,
        ))  # type: ignore[return-value]

    def shard_crash(self, shard: int, at_s: float,
                    down_for_s: Optional[float] = None) -> ShardCrash:
        """Add a controller-shard crash (sharded control plane only)."""
        return self.add(ShardCrash(shard, at_s, down_for_s))  # type: ignore[return-value]

    # -- attachment ---------------------------------------------------------
    @property
    def needs_fault_plane(self) -> bool:
        """True when any spec must be consulted per control message."""
        return bool(self._loss_specs or self._partitions)

    def attach(self, net: "Network", ctrl: Optional["Controller"] = None) -> None:
        """Schedule every timed fault on ``net`` and (when needed) hook the
        controller's fault plane.

        An empty schedule attaches as a no-op: no events, no fault plane —
        the run stays byte-identical to one with no schedule at all.
        """
        if self.net is not None:
            raise RuntimeError("schedule already attached")
        self.net = net
        self.ctrl = ctrl
        sim = net.sim
        for spec in self.specs:
            if isinstance(spec, LinkFlap):
                for down_at, up_at in spec.windows():
                    self._at(sim, down_at,
                             lambda s=spec: net.set_link_state(s.a, s.b, False))
                    self._at(sim, up_at,
                             lambda s=spec: net.set_link_state(s.a, s.b, True))
            elif isinstance(spec, SwitchCrash):
                for down_at, up_at in spec.windows():
                    self._at(sim, down_at,
                             lambda s=spec: net.set_switch_state(s.switch, False))
                    self._at(sim, up_at,
                             lambda s=spec: net.set_switch_state(s.switch, True))
            elif isinstance(spec, ShardCrash):
                mic = self._sharded_mic(ctrl, spec)
                self._at(sim, spec.at_s,
                         lambda m=mic, s=spec: m.crash_shard(s.shard))
                if spec.down_for_s is not None:
                    self._at(sim, spec.at_s + spec.down_for_s,
                             lambda m=mic, s=spec: m.rejoin_shard(s.shard))
        if ctrl is not None and self.needs_fault_plane:
            ctrl.faults = self

    def _at(self, sim, when: float, fn) -> None:
        self.injected_events += 1
        sim.call_at(max(when, sim.now), fn)

    @staticmethod
    def _sharded_mic(ctrl: Optional["Controller"], spec: ShardCrash):
        """Resolve the sharded MC app a :class:`ShardCrash` targets."""
        if ctrl is None:
            raise ValueError("shard_crash requires attaching with a controller")
        mic = next((app for app in ctrl.apps if app.name == "mic"), None)
        if mic is None or mic.n_shards < 2:
            raise ValueError(
                "shard_crash requires the sharded control plane "
                "(deploy_mic(shards=N) with N >= 2)"
            )
        if not 0 <= spec.shard < mic.n_shards:
            raise ValueError(
                f"shard {spec.shard} outside the cluster's 0..{mic.n_shards - 1}"
            )
        return mic

    # -- the fault plane (consulted by the controller per message) ----------
    def flowmod_fate(self, switch_name: str) -> tuple[bool, float]:
        """Decide one flow-mod's fate now: ``(lost, extra_delay_s)``.

        Draws happen in sim event order from the schedule's own RNG, so the
        outcome sequence is a pure function of the seed and the scenario.
        """
        now = self.net.sim.now
        lost = False
        extra = 0.0
        for spec in self._loss_specs:
            if not spec.active(now, switch_name):
                continue
            if spec.loss_prob > 0.0 and self.rng.random() < spec.loss_prob:
                lost = True
            if (spec.delay_prob > 0.0
                    and self.rng.random() < spec.delay_prob):
                extra += spec.extra_delay_s
        if lost:
            self.flowmods_lost += 1
        elif extra > 0.0:
            self.flowmods_delayed += 1
        return lost, extra

    def packet_in_blocked(self, switch_name: str) -> bool:
        """True when a control partition currently severs this switch."""
        now = self.net.sim.now
        return any(p.active(now, switch_name) for p in self._partitions)

    # -- introspection ------------------------------------------------------
    def timeline(self) -> list[tuple[float, str]]:
        """Every timed state change, sorted: ``(at_s, description)``."""
        out: list[tuple[float, str]] = []
        for spec in self.specs:
            if isinstance(spec, LinkFlap):
                for down_at, up_at in spec.windows():
                    out.append((down_at, f"link {spec.a}<->{spec.b} down"))
                    out.append((up_at, f"link {spec.a}<->{spec.b} up"))
            elif isinstance(spec, SwitchCrash):
                out.append((spec.at_s, f"switch {spec.switch} crash"))
                out.append((spec.at_s + spec.down_for_s,
                            f"switch {spec.switch} reboot"))
            elif isinstance(spec, ControlPartition):
                out.append((spec.at_s, f"partition {spec.switch} begin"))
                out.append((spec.at_s + spec.duration_s,
                            f"partition {spec.switch} end"))
            elif isinstance(spec, RuleInstallLoss):
                out.append((spec.at_s, f"flow-mod loss window begin "
                                       f"(p={spec.loss_prob})"))
                out.append((spec.at_s + spec.duration_s,
                            "flow-mod loss window end"))
            elif isinstance(spec, ShardCrash):
                out.append((spec.at_s, f"controller shard {spec.shard} crash"))
                if spec.down_for_s is not None:
                    out.append((spec.at_s + spec.down_for_s,
                                f"controller shard {spec.shard} rejoin"))
        return sorted(out)

    def describe(self) -> str:
        """Human-readable schedule summary."""
        lines = [f"fault schedule (seed={self.seed}, {len(self.specs)} specs)"]
        for spec in self.specs:
            lines.append(f"  - {spec.describe()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.specs)
