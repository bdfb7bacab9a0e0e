"""The strategy × attack tournament (anonymity-vs-overhead frontier).

One tournament runs every registered anonymity strategy
(:mod:`repro.anonymity`) through the *same* seeded scenario — cross-pod
UDP echo channels on a fat-tree, distinct per-channel traffic shapes, one
mid-walk link flap for churn — then fields every registered attack
(:mod:`repro.attacks.suite`) against each finished run.  The output is
one deterministic frontier document: per strategy, each attack's measured
accuracy next to the strategy's overhead (rule footprint, setup latency,
rotation install traffic) and availability, so the anonymity/overhead
trade-off reads off a single JSON file.

Determinism: every scenario is a fresh deployment — its own id namespaces
and named, seeded RNG streams — so the same seed yields a byte-identical
frontier, however many scenarios ran in the process before it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional, Sequence

from ..anonymity import STRATEGIES
from ..core.client import MicDatagramServer
from ..core.deployment import deploy_mic
from ..faults.schedule import FaultSchedule
from ..faults.scorecard import ChannelProbeStats, build_scorecard
from ..net.topology import fat_tree
from .base import ATTACKS, AttackContext, ChannelTruth, get_attack

__all__ = [
    "frontier_json",
    "run_scenario",
    "run_tournament",
    "score_strategy",
]

#: how long the per-channel probe pumps run (simulated seconds)
PUMP_HORIZON_S = 4.0
#: distinct per-channel traffic shapes: (period_s, payload_bytes); the
#: rate differences are the watermark the rate-matching attacker exploits
CHANNEL_SHAPES = ((0.04, 100), (0.09, 160), (0.15, 220))


def run_scenario(
    strategy: str = "mic",
    seed: int = 0,
    k: int = 4,
    n_mns: int = 3,
    decoys: int = 2,
    mn_bits: int = 16,
) -> tuple[AttackContext, dict]:
    """Run one tournament scenario; returns ``(context, stats)``.

    ``context`` is the adversary-facing view (taps, journeys, channel
    ground truth); ``stats`` the defender-side overhead/availability
    numbers the frontier pairs with the attack accuracies.
    """
    dep = deploy_mic(
        fat_tree(k),
        seed=seed,
        observe=True,
        journey=True,
        mic_kwargs={"strategy": strategy, "mn_bits": mn_bits},
    )
    sim = dep.sim
    n_hosts = k * k * k // 4
    pairs = [
        (f"h{i + 1}", f"h{n_hosts - i}", 7001 + i)
        for i in range(len(CHANNEL_SHAPES))
    ]

    # -- establish the channels (setup latency measured per channel) -------
    sockets: dict[int, object] = {}
    setup_s: dict[int, float] = {}

    def serve(server):
        while True:
            dg = yield server.recv()
            server.reply(dg, dg.data)

    def establish(idx: int, a: str, b: str, port: int):
        t0 = sim.now
        sock = yield from dep.endpoint(a).connect_datagram(
            b, service_port=port, n_mns=n_mns, decoys=decoys
        )
        sockets[idx] = sock
        setup_s[idx] = sim.now - t0

    for idx, (a, b, port) in enumerate(pairs):
        server = MicDatagramServer(dep.net.host(b), port)
        sim.process(serve(server), name=f"tourney.server{idx}")
        sim.process(establish(idx, a, b, port), name=f"tourney.establish{idx}")
    dep.run_for(5.0)
    if len(sockets) != len(pairs):
        raise RuntimeError(
            f"only {len(sockets)}/{len(pairs)} channels established"
        )

    # -- ground truth + adversary taps -------------------------------------
    channels: list[ChannelTruth] = []
    for idx, (a, b, port) in enumerate(pairs):
        plan = dep.mic.channels[sockets[idx].channel_id].flows[0]
        channels.append(
            ChannelTruth(
                channel_id=sockets[idx].channel_id,
                initiator=a,
                responder=b,
                initiator_ip=str(dep.net.host(a).ip),
                responder_ip=str(dep.net.host(b).ip),
                service_port=port,
                payload_bytes=0,  # patched after the pumps finish
                first_mn=plan.walk[plan.mn_positions[0]],
                initiator_edge=plan.walk[1],
                responder_edge=plan.walk[-2],
            )
        )
    tap_names = sorted(
        {ch.first_mn for ch in channels}
        | {ch.initiator_edge for ch in channels}
        | {ch.responder_edge for ch in channels}
    )
    from .observer import ObservationPoint

    points = {name: ObservationPoint(dep.net, name) for name in tap_names}

    # -- churn: one mid-walk link flap on channel 0 ------------------------
    t0 = sim.now
    walk0 = dep.mic.channels[channels[0].channel_id].flows[0].walk
    mid = len(walk0) // 2
    schedule = FaultSchedule(seed=seed)
    schedule.link_flap(walk0[mid - 1], walk0[mid], at_s=t0 + 1.5, down_for_s=1.0)
    schedule.attach(dep.net, dep.ctrl)

    # -- probe pumps with per-channel traffic shapes -----------------------
    probes = [
        ChannelProbeStats(channel_id=ch.channel_id,
                          initiator=ch.initiator, responder=ch.responder)
        for ch in channels
    ]
    payload_sent = [0] * len(pairs)

    def pump(idx: int, stats: ChannelProbeStats):
        sock = sockets[idx]
        period_s, size = CHANNEL_SHAPES[idx]
        end = t0 + PUMP_HORIZON_S
        seq = 0
        while sim.now < end:
            data = f"probe:{idx}:{seq}:".encode().ljust(size, b"x")
            sock.send(data)
            stats.sent += 1
            payload_sent[idx] += len(data)
            seq += 1
            yield sim.timeout(period_s)

    def drain(idx: int, stats: ChannelProbeStats):
        sock = sockets[idx]
        while True:
            yield sock.recv()
            stats.answered += 1

    for idx, stats in enumerate(probes):
        sim.process(pump(idx, stats), name=f"tourney.pump{idx}")
        sim.process(drain(idx, stats), name=f"tourney.drain{idx}")

    # -- run, settle, score ------------------------------------------------
    dep.run_for(PUMP_HORIZON_S + 1.0)
    deadline = sim.now + 20.0
    while (dep.mic.parked_flows or dep.mic.repairs_in_flight) and sim.now < deadline:
        dep.run_for(0.5)
    dep.run_for(1.0)

    channels = [
        dataclasses.replace(ch, payload_bytes=payload_sent[idx])
        for idx, ch in enumerate(channels)
    ]
    journeys = (
        dep.journey.journeys_by_content_tag() if dep.journey is not None else {}
    )
    ctx = AttackContext(
        dep=dep,
        strategy_name=strategy,
        channels=channels,
        points=points,
        journeys=journeys,
    )

    verification = dep.mic.verify()
    card = build_scorecard(dep, probes, schedule, verification=verification)
    strat = dep.mic.strategy
    setups = [setup_s[i] for i in sorted(setup_s)]
    stats = {
        "availability": card["availability"]["overall"],
        "repairs_completed": card["repair"]["completed"],
        "verifier_ok": card["verification"]["ok"],
        "overhead": {
            "rules_installed": sum(dep.mic.rule_footprint().values()),
            "setup_latency_s_mean": sum(setups) / len(setups),
            "setup_latency_s_max": max(setups),
            "flow_mods_sent": dep.ctrl.flow_mods_sent,
            "rotations_completed": strat.rotations_completed,
            "rotation_installs": strat.rotation_installs,
            "aliases_live": strat.live_aliases,
        },
    }
    return ctx, stats


def score_strategy(
    strategy: str,
    seed: int = 0,
    k: int = 4,
    attacks: Optional[Sequence[str]] = None,
    **scenario_kwargs,
) -> dict:
    """One strategy's frontier entry: every attack's accuracy + overhead."""
    ctx, stats = run_scenario(strategy=strategy, seed=seed, k=k,
                              **scenario_kwargs)
    entry = dict(stats)
    entry["attacks"] = {
        name: get_attack(name).run(ctx).to_dict()
        for name in (attacks if attacks is not None else list(ATTACKS))
    }
    return entry


def run_tournament(
    strategies: Optional[Sequence[str]] = None,
    seed: int = 0,
    quick: bool = True,
    attacks: Optional[Sequence[str]] = None,
) -> dict:
    """Every strategy × every attack → the frontier document.

    ``quick`` runs fat_tree(4) only (the CI slice); the full tournament
    adds a fat_tree(8) round with a 20-bit m-address space per strategy.
    """
    names = list(strategies) if strategies is not None else sorted(STRATEGIES)
    rounds = [{"k": 4, "mn_bits": 16}]
    if not quick:
        rounds.append({"k": 8, "mn_bits": 20})
    frontier: dict = {
        "schema": 1,
        "seed": seed,
        "quick": quick,
        "attacks": sorted(attacks if attacks is not None else list(ATTACKS)),
        "rounds": [],
    }
    for spec in rounds:
        entry = {
            "topology": f"fat-tree-{spec['k']}",
            "mn_bits": spec["mn_bits"],
            "strategies": {
                name: score_strategy(name, seed=seed, attacks=attacks, **spec)
                for name in names
            },
        }
        frontier["rounds"].append(entry)
    return frontier


def frontier_json(frontier: dict) -> str:
    """Deterministic JSON form (sorted keys, fixed indent)."""
    return json.dumps(frontier, sort_keys=True, indent=2)
