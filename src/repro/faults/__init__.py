"""Deterministic fault injection, detection, and recovery (``repro.faults``).

The resilience layer for the MIC reproduction:

* :mod:`~repro.faults.specs` — declarative fault specifications (link
  flaps, switch crash/reboot, control partitions, flow-mod loss windows);
* :mod:`~repro.faults.schedule` — :class:`FaultSchedule`, the seeded
  compiler from specs to sim events plus the per-message fault plane the
  SDN controller consults;
* :mod:`~repro.faults.chaos` — the seeded chaos scenario runner;
* :mod:`~repro.faults.scorecard` — the resilience scorecard.

``python -m repro.faults run`` executes the chaos demo;
``python -m repro.faults scorecard`` prints the JSON scorecard.
"""

from .chaos import default_schedule, run_chaos
from .schedule import FaultSchedule
from .scorecard import (
    ChannelProbeStats,
    EchoChannels,
    build_scorecard,
    format_scorecard,
    scorecard_json,
)
from .specs import (
    ControlPartition,
    FaultSpec,
    LinkFlap,
    RuleInstallLoss,
    ShardCrash,
    SwitchCrash,
)

__all__ = [
    "ChannelProbeStats",
    "ControlPartition",
    "EchoChannels",
    "FaultSchedule",
    "FaultSpec",
    "LinkFlap",
    "RuleInstallLoss",
    "ShardCrash",
    "SwitchCrash",
    "build_scorecard",
    "default_schedule",
    "format_scorecard",
    "run_chaos",
    "scorecard_json",
]
