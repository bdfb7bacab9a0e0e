"""The seeded chaos scenario: faults derived from live channel state.

``run_chaos`` stands up MIC on a fat-tree, establishes datagram channels,
then builds a :class:`~repro.faults.FaultSchedule` *from the established
plans* so every fault is guaranteed to matter:

* an **interior link** of channel 0's walk flaps → detection → repair onto
  a surviving walk;
* channel 1's **responder access link** flaps — no alternate path exists,
  so the flow parks and recovers when the link heals;
* an **MN switch** of channel 2 crashes and reboots → the MC re-syncs the
  wiped tables from stored intent;
* a **control partition** and a probabilistic **flow-mod loss/delay
  window** stress the controller's ack/retry machinery throughout.

Each channel runs a sequence-numbered probe/echo loop; availability is
answered-over-sent per channel.  A :class:`~repro.attacks.ObservationPoint`
sits on one of channel 0's MNs so the scorecard also reports attacker
accuracy under churn.  Everything is seeded — the same seed produces the
same scorecard byte for byte.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.sanitizer import SimSanitizer
    from ..obs.prof import Profiler

from ..attacks import ObservationPoint, correlate_with_truth
from ..core.deployment import MicDeployment, deploy_mic
from ..net.topology import fat_tree
from ..obs.flight import FlightRecorder
from .schedule import FaultSchedule
from .scorecard import EchoChannels, build_scorecard

__all__ = ["default_schedule", "run_chaos"]

#: Wall of the scenario: probes run this long after the faults start.
PROBE_HORIZON_S = 15.0


def default_schedule(dep: MicDeployment, channel_ids: list[int],
                     seed: int, t0: float) -> FaultSchedule:
    """The canonical chaos plan, targeted at the established channels.

    ``channel_ids`` must name at least three live channels; fault targets
    are read off their first m-flow walks so every fault hits real state.
    All times are offsets from ``t0`` (the moment probing starts).

    On a sharded control plane (``deploy_mic(shards=N)``, N ≥ 2) the plan
    additionally crashes the shard owning channel 0 at ``t0 + 2`` — while
    that channel's repair from the first link flap may still be in flight —
    and rejoins it six seconds later, exercising channel adoption from
    stored intents under live faults.
    """
    if len(channel_ids) < 3:
        raise ValueError(f"need >= 3 channels, got {len(channel_ids)}")
    walk0 = dep.mic.channels[channel_ids[0]].flows[0].walk
    walk1 = dep.mic.channels[channel_ids[1]].flows[0].walk
    plan2 = dep.mic.channels[channel_ids[2]].flows[0]

    sched = FaultSchedule(seed=seed)
    # Interior switch-switch hop of channel 0 (never a host-adjacent edge):
    # alternates exist, so this exercises detect -> replan -> repair.
    mid = len(walk0) // 2
    sched.link_flap(walk0[mid - 1], walk0[mid], at_s=t0 + 1.0, down_for_s=2.0)
    # Channel 1's responder access link: the only path to the host, so the
    # repair finds no surviving walk and parks until the heal at +7s.
    sched.link_flap(walk1[-2], walk1[-1], at_s=t0 + 4.0, down_for_s=3.0)
    # Crash channel 2's first MN: tables wiped, re-synced on reboot.
    sched.switch_crash(plan2.walk[plan2.mn_positions[0]],
                       at_s=t0 + 8.0, down_for_s=1.5)
    # Control-channel partition of the crashed MN right after its reboot
    # window, plus a long probabilistic flow-mod loss/delay window that
    # overlaps every repair above.
    sched.control_partition(plan2.walk[plan2.mn_positions[0]],
                            at_s=t0 + 10.0, duration_s=1.0)
    sched.rule_install_loss(at_s=t0 + 0.5, duration_s=12.0,
                            loss_prob=0.2, delay_prob=0.2,
                            extra_delay_s=0.002)
    # On a sharded control plane, crash the shard owning channel 0 while
    # its link-flap repair window is open; a survivor adopts its channels
    # from the stored compiled intents.  Guarded so the unsharded
    # (golden-pinned) run keeps the schedule byte-identical.
    if dep.mic.n_shards >= 2:
        victim = dep.mic.shard_of_channel(channel_ids[0]).shard_id
        sched.shard_crash(victim, at_s=t0 + 2.0, down_for_s=6.0)
    return sched


def run_chaos(
    seed: int = 0,
    n_channels: int = 3,
    n_mns: int = 3,
    decoys: int = 1,
    probe_period_s: float = 0.2,
    detection_latency_s: float = 0.002,
    max_settle_s: float = 30.0,
    schedule: Optional[FaultSchedule] = None,
    sanitizer: Optional["SimSanitizer"] = None,
    profiler: Optional["Profiler"] = None,
    strategy: str = "mic",
    shards: int = 1,
) -> tuple[dict, MicDeployment]:
    """Run one seeded chaos scenario; returns ``(scorecard, deployment)``.

    ``strategy`` selects the anonymity strategy the controller runs (see
    :mod:`repro.anonymity`); the scorecard's ``anonymity`` section reports
    it along with rotation counters.

    ``shards`` is the controller's shard count (default 1, unsharded);
    with ≥ 2 shards the default schedule adds a
    :class:`~repro.faults.ShardCrash` and the scorecard gains a
    ``controlplane`` section.

    ``n_channels`` lies in [1, 8], ``probe_period_s`` is positive, ``n_mns``
    >= 1, ``decoys`` >= 0, and ``detection_latency_s`` and ``max_settle_s``
    are finite and >= 0: all are checked before anything is deployed.
    With ``schedule=None`` (which needs at least three channels) the
    :func:`default_schedule` is built from the established channels.  A
    supplied schedule must not be attached yet — its absolute times should
    assume faults start a few seconds into the run (establishment takes ~1
    simulated second).

    ``sanitizer`` (a :class:`repro.analysis.sanitizer.SimSanitizer`) is
    attached to the simulator for the whole scenario and its teardown
    checks run after settling; findings accumulate on the caller's
    instance and the scorecard itself is untouched, so a sanitized run
    must produce a byte-identical card.

    ``profiler`` (a :class:`repro.obs.Profiler`) is hooked into the
    simulator, flow tables, hybrid engine (if any), journey/observer hooks
    and the MC's shard routing before the scenario starts; read
    ``profiler.report()`` after the call.  Like the sanitizer, it must not
    perturb the card — frame counts and named counters are deterministic
    per seed, only wall-ns vary.
    """
    if not isinstance(n_channels, numbers.Integral) or not 1 <= n_channels <= 8:
        raise ValueError(f"n_channels {n_channels} out of [1, 8]")
    if schedule is None and n_channels < 3:
        raise ValueError(
            f"the default schedule needs >= 3 channels, got {n_channels}"
        )
    for name, value, ok in (
        ("n_mns", n_mns, isinstance(n_mns, numbers.Integral) and n_mns >= 1),
        ("decoys", decoys, isinstance(decoys, numbers.Integral) and decoys >= 0),
        ("detection_latency_s", detection_latency_s, 0 <= detection_latency_s < math.inf),
        ("max_settle_s", max_settle_s, 0 <= max_settle_s < math.inf),
    ):
        if not ok:
            raise ValueError(f"bad {name}: {value!r}")
    echo = EchoChannels([(probe_period_s, 0)] * n_channels, PROBE_HORIZON_S)
    flight = FlightRecorder()
    dep = deploy_mic(
        fat_tree(4),
        seed=seed,
        observe=True,
        journey=True,
        mic_kwargs={"strategy": strategy},
        journey_kwargs={"flight": flight},
        controller_kwargs={"detection_latency_s": detection_latency_s},
        shards=shards,
    )
    sim = dep.sim
    if sanitizer is not None:
        sanitizer.hook(sim)
    if profiler is not None:
        profiler.hook(dep.net).hook_mic(dep.mic)

    # -- establish n datagram channels on cross-pod host pairs -------------
    channel_ids = echo.establish(dep, n_mns, decoys)
    if schedule is None:
        schedule = default_schedule(dep, channel_ids, seed, sim.now)
    schedule.attach(dep.net, dep.ctrl)

    # The compromised MN: one of channel 0's mimic nodes, tapped before
    # any probe traffic flows.
    plan0 = dep.mic.channels[channel_ids[0]].flows[0]
    point = ObservationPoint(dep.net, plan0.walk[plan0.mn_positions[0]])

    # -- probe loops; run the scenario, then settle until recovery converges
    probes = echo.start()
    echo.settle(max_settle_s, drain_s=2.0)

    # -- score -------------------------------------------------------------
    journeys = (
        dep.journey.journeys_by_content_tag() if dep.journey is not None else {}
    )
    attacker = correlate_with_truth(point, journeys)
    verification = dep.mic.verify()
    card = build_scorecard(dep, probes, schedule,
                           attacker=attacker, verification=verification)
    if sanitizer is not None:
        # Probe sockets stay open by design, so skip the undrained-store
        # scan here; the registry/cookie audits must still come out clean.
        sanitizer.check_teardown(mic=dep.mic, stores=False)
        sanitizer.detach()
    return card, dep
