"""The resilience scorecard: what survived the faults, measured.

One chaos run produces one scorecard — a plain JSON-ready dict covering:

* **availability** per channel and overall (probe datagrams answered over
  probe datagrams sent),
* **loss accounting** (link drops, dead-switch drops, blocked packet-ins),
* **repair behaviour** (repairs completed/parked, resyncs, repair-latency
  percentiles from the ``mic.repair`` span log),
* **control-plane robustness** (flow-mods sent/lost/retried),
* **anonymity under churn** (the ground-truth correlation attacker's
  expected accuracy at a compromised MN),
* **verification** (violations found by the static checker afterwards).

Everything is derived from simulated state, so the same seed yields the
same scorecard byte for byte (`` scorecard_json`` sorts keys).

:class:`EchoChannels` is the probe driver behind those availability
numbers, shared by the chaos scenario and the attack tournament.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..core.client import MicDatagramServer
from ..obs.metrics import Histogram

__all__ = [
    "ChannelProbeStats",
    "EchoChannels",
    "build_scorecard",
    "format_scorecard",
    "scorecard_json",
]


@dataclass
class ChannelProbeStats:
    """Probe accounting for one channel: sent vs answered datagrams."""

    channel_id: int
    initiator: str
    responder: str
    sent: int = 0
    answered: int = 0
    #: payload bytes of the probes sent
    bytes_sent: int = 0

    @property
    def availability(self) -> float:
        """Fraction of probes that came back (1.0 when nothing was sent)."""
        return self.answered / self.sent if self.sent else 1.0

    def to_dict(self) -> dict[str, Any]:
        """The scorecard's JSON form for this channel."""
        return {
            "channel_id": self.channel_id,
            "initiator": self.initiator,
            "responder": self.responder,
            "probes_sent": self.sent,
            "probes_answered": self.answered,
            "availability": self.availability,
        }


class EchoChannels:
    """Datagram echo channels probed open loop.

    Channel ``idx`` (from 0) joins ``h{idx+1}`` to ``h{n_hosts-idx}`` — a
    cross-pod pair on a fat-tree — on service port ``7001 + idx``, and the
    responder echoes every datagram.  ``shapes[idx]`` is its
    ``(period_s, payload_bytes)``: once :meth:`start` runs, its pump sends
    ``probe:<idx>:<seq>`` padded with ``x`` to that size every period for
    ``horizon_s``, and its drain counts the echoes.  The shapes are
    checked here, before anything is deployed.
    """

    def __init__(self, shapes: Sequence[tuple[float, int]], horizon_s: float):
        for period_s, _size in shapes:
            if not period_s > 0:
                raise ValueError(f"probe period must be positive, got {period_s!r}")
        self.shapes = list(shapes)
        self.horizon_s = horizon_s
        self.dep = None
        #: (initiator, responder, service port) per channel
        self.pairs: list[tuple[str, str, int]] = []
        #: channel index -> the initiator's datagram socket
        self.sockets: dict[int, Any] = {}
        #: channel index -> simulated seconds its establishment took
        self.setup_s: dict[int, float] = {}

    def establish(self, dep, n_mns: int, decoys: int) -> list[int]:
        """Start the echo servers on ``dep``, connect every channel within
        five simulated seconds, and return the channel ids in channel order."""
        self.dep = dep
        sim = dep.sim
        n_hosts = len(dep.net.hosts())
        self.pairs = [
            (f"h{idx + 1}", f"h{n_hosts - idx}", 7001 + idx)
            for idx in range(len(self.shapes))
        ]

        def serve(server):
            while True:
                dg = yield server.recv()
                server.reply(dg, dg.data)

        def connect(idx: int, a: str, b: str, port: int):
            t0 = sim.now
            sock = yield from dep.endpoint(a).connect_datagram(
                b, service_port=port, n_mns=n_mns, decoys=decoys
            )
            self.sockets[idx] = sock
            self.setup_s[idx] = sim.now - t0

        for idx, (a, b, port) in enumerate(self.pairs):
            server = MicDatagramServer(dep.net.host(b), port)
            sim.process(serve(server), name=f"echo.server{idx}")
            sim.process(connect(idx, a, b, port), name=f"echo.establish{idx}")
        dep.run_for(5.0)
        if len(self.sockets) != len(self.pairs):
            raise RuntimeError(
                f"only {len(self.sockets)}/{len(self.pairs)} channels established"
            )
        return [self.sockets[idx].channel_id for idx in range(len(self.pairs))]

    def start(self) -> list[ChannelProbeStats]:
        """Start every channel's pump and drain; returns their stats."""
        sim = self.dep.sim
        end = sim.now + self.horizon_s
        probes = [
            ChannelProbeStats(channel_id=self.sockets[idx].channel_id,
                              initiator=a, responder=b)
            for idx, (a, b, _port) in enumerate(self.pairs)
        ]

        def pump(idx: int, stats: ChannelProbeStats):
            sock = self.sockets[idx]
            period_s, size = self.shapes[idx]
            seq = 0
            while sim.now < end:
                data = f"probe:{idx}:{seq}".encode().ljust(size, b"x")
                sock.send(data)
                stats.sent += 1
                stats.bytes_sent += len(data)
                seq += 1
                yield sim.timeout(period_s)

        def drain(idx: int, stats: ChannelProbeStats):
            sock = self.sockets[idx]
            while True:
                yield sock.recv()
                stats.answered += 1

        for idx, stats in enumerate(probes):
            sim.process(pump(idx, stats), name=f"echo.pump{idx}")
            sim.process(drain(idx, stats), name=f"echo.drain{idx}")
        return probes

    def settle(self, max_settle_s: float, drain_s: float) -> None:
        """Run out the probe horizon plus a second, keep running while the
        MC still has flows parked or repairs in flight (at most
        ``max_settle_s``), then ``drain_s`` more for the last replies."""
        dep = self.dep
        dep.run_for(self.horizon_s + 1.0)
        deadline = dep.sim.now + max_settle_s
        while (
            dep.mic.parked_flows or dep.mic.repairs_in_flight
        ) and dep.sim.now < deadline:
            dep.run_for(0.5)
        dep.run_for(drain_s)


def _latency_summary(durations: list[float]) -> dict[str, float]:
    hist = Histogram()
    for d in durations:
        hist.observe(d)
    return hist.summary(bucket_bounds=None)


def build_scorecard(
    dep,
    probes: list[ChannelProbeStats],
    schedule,
    attacker: Optional[Any] = None,
    verification=None,
) -> dict[str, Any]:
    """Assemble the scorecard dict from a finished chaos deployment.

    ``dep`` is the :class:`~repro.core.deployment.MicDeployment`;
    ``probes`` the per-channel probe stats; ``schedule`` the attached
    :class:`~repro.faults.FaultSchedule`; ``attacker`` an optional
    :class:`~repro.attacks.correlation.GroundTruthCorrelation`;
    ``verification`` an optional post-convergence
    :class:`~repro.analysis.VerificationReport`.
    """
    net, ctrl, mic = dep.net, dep.ctrl, dep.mic
    total_sent = sum(p.sent for p in probes)
    total_answered = sum(p.answered for p in probes)
    link_drops = sum(
        ch.stats.drops
        for link in net.links
        for ch in (link.forward, link.reverse)
    )
    dead_drops = sum(sw.packets_dropped_dead for sw in net.switches())
    repair_durations = (
        dep.obs.spans.durations("mic.repair") if dep.obs is not None else []
    )
    card: dict[str, Any] = {
        "seed": schedule.seed,
        "topology": net.topo.name,
        "sim_time_s": net.sim.now,
        "faults": {
            "specs": len(schedule.specs),
            "timeline": [
                {"at_s": t, "event": desc} for t, desc in schedule.timeline()
            ],
            "flowmods_lost": schedule.flowmods_lost,
            "flowmods_delayed": schedule.flowmods_delayed,
        },
        "availability": {
            "overall": (total_answered / total_sent) if total_sent else 1.0,
            "channels": [p.to_dict() for p in probes],
        },
        "loss": {
            "link_drops": link_drops,
            "dead_switch_drops": dead_drops,
            "packet_ins_blocked": ctrl.packet_ins_blocked,
        },
        "repair": {
            "completed": mic.repairs_completed,
            "parked_events": mic.repairs_parked,
            "parked_remaining": mic.parked_flows,
            "resyncs_completed": mic.resyncs_completed,
            "latency_s": _latency_summary(repair_durations),
        },
        "control_plane": {
            "flow_mods_sent": ctrl.flow_mods_sent,
            "flow_mods_lost": ctrl.flow_mods_lost,
            "flow_mods_retried": ctrl.flow_mods_retried,
            "detector_events": ctrl.detector.events_delivered,
            "detection_latency_s": ctrl.detector.latency_s,
        },
        "anonymity": {
            "strategy": mic.strategy.name,
            "rotations_completed": mic.strategy.rotations_completed,
            "rotation_installs": mic.strategy.rotation_installs,
        },
    }
    # Sharded control plane only (>= 2 shards): the unsharded run keeps
    # the card byte-identical to the golden-pinned shape.
    if mic.n_shards >= 2:
        card["controlplane"] = {
            "shards": mic.n_shards,
            "shards_alive": len(mic.alive_shards()),
            "failovers": mic.failovers,
            "channels_adopted": mic.channels_adopted,
            "flows_reparked": mic.flows_reparked,
            "repairs_rescheduled": mic.repairs_rescheduled,
            "remote_installs": mic.remote_installs,
            "requests_by_shard": {
                str(s.shard_id): s.requests_served for s in mic.shards
            },
            "installs_by_shard": {
                str(s.shard_id): s.installs_issued for s in mic.shards
            },
            "channels_by_shard": {
                str(s.shard_id): len(s.channels) for s in mic.shards
            },
        }
    if attacker is not None:
        card["attacker"] = {
            "expected_accuracy": attacker.expected_accuracy,
            "match_rate": attacker.match_rate,
            "total_ingress": attacker.total_ingress,
            "decoy_candidates": attacker.decoy_candidates,
            "true_candidates": attacker.true_candidates,
        }
    if verification is not None:
        card["verification"] = {
            "ok": not verification.violations,
            "violations": len(verification.violations),
        }
    return card


def scorecard_json(card: dict[str, Any]) -> str:
    """Deterministic JSON form (sorted keys, fixed indent)."""
    return json.dumps(card, sort_keys=True, indent=2)


def format_scorecard(card: dict[str, Any]) -> str:
    """Human-readable scorecard summary."""
    lines = [
        f"resilience scorecard — {card['topology']} seed={card['seed']} "
        f"t={card['sim_time_s']:.3f}s",
        f"  faults injected: {card['faults']['specs']} specs, "
        f"{len(card['faults']['timeline'])} timed events",
        f"  availability: {card['availability']['overall']:.4f} overall",
    ]
    for chp in card["availability"]["channels"]:
        lines.append(
            f"    ch{chp['channel_id']} {chp['initiator']}->{chp['responder']}: "
            f"{chp['availability']:.4f} "
            f"({chp['probes_answered']}/{chp['probes_sent']})"
        )
    loss = card["loss"]
    lines.append(
        f"  losses: {loss['link_drops']} link drops, "
        f"{loss['dead_switch_drops']} dead-switch drops, "
        f"{loss['packet_ins_blocked']} blocked packet-ins"
    )
    rep = card["repair"]
    lat = rep["latency_s"]
    lines.append(
        f"  repairs: {rep['completed']} completed, "
        f"{rep['parked_events']} parked ({rep['parked_remaining']} still), "
        f"{rep['resyncs_completed']} resyncs"
    )
    if lat["count"]:
        lines.append(
            f"    repair latency: p50={lat['p50']:.4f}s "
            f"p95={lat['p95']:.4f}s max={lat['max']:.4f}s"
        )
    cp = card["control_plane"]
    lines.append(
        f"  control plane: {cp['flow_mods_sent']} mods sent, "
        f"{cp['flow_mods_lost']} lost, {cp['flow_mods_retried']} retried"
    )
    if "controlplane" in card:
        sh = card["controlplane"]
        lines.append(
            f"  shards: {sh['shards_alive']}/{sh['shards']} alive, "
            f"{sh['failovers']} failovers, "
            f"{sh['channels_adopted']} channels adopted, "
            f"{sh['remote_installs']} remote installs"
        )
    anon = card.get("anonymity")
    if anon:
        lines.append(
            f"  anonymity: strategy={anon['strategy']}, "
            f"{anon['rotations_completed']} rotations "
            f"({anon['rotation_installs']} rotation installs)"
        )
    if "attacker" in card:
        atk = card["attacker"]
        lines.append(
            f"  attacker: expected accuracy "
            f"{atk['expected_accuracy']:.4f} over "
            f"{atk['total_ingress']} ingress packets"
        )
    if "verification" in card:
        ver = card["verification"]
        status = "ok" if ver["ok"] else f"{ver['violations']} violations"
        lines.append(f"  verification: {status}")
    return "\n".join(lines)
