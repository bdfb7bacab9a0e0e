"""The :class:`Observer`: one attachment point for a run's observability.

An observer binds to a live :class:`~repro.net.Network` (and optionally the
MIC control application) and provides:

* ``snapshot()`` — derive every contracted counter/gauge from the live
  simulation objects (flow entries, link channels, host/switch tallies),
* histograms — accumulated observations (packet latency, echo RTTs,
  timeline queue samples) with exact percentiles,
* spans — completed control-plane operations via :meth:`begin_span`,
* a :class:`~repro.obs.timeline.MetricsTimeline` for periodic sampling.

Observation is opt-in and cost-free when absent: counters and gauges are
*read* at snapshot time from tallies the simulation keeps anyway.  Packet
latency is observed from outside, by a wrapper :meth:`Observer.attach` sets
on each host's ``receive`` through :mod:`repro.obs.seam` (no host knows an
observer exists); the MC's spans sit behind its ``obs`` slot.  Neither
schedules an event nor touches an RNG — an observed run dispatches exactly
the events of an unobserved one.  The per-packet journey recorder is
attached on its own (:meth:`repro.obs.JourneyRecorder.attach`,
``deploy_mic(journey=True)``) and stacks on the same ``receive``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from .metrics import Histogram, MetricsSnapshot, labels_key
from .seam import unwrap, wrap
from .spans import Span, SpanLog
from .timeline import MetricsTimeline

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import MimicController
    from ..net.host import Host
    from ..net.link import Channel
    from ..net.network import Network
    from ..net.packet import Packet
    from ..sdn.controller import Controller

__all__ = ["Observer"]


class Observer:
    """A run's metrics hub: snapshots, histograms, spans, timeline."""

    def __init__(
        self,
        net: "Network",
        mic: Optional["MimicController"] = None,
        controller: Optional["Controller"] = None,
    ):
        self.net = net
        self.sim = net.sim
        self.mic = mic
        if controller is None and mic is not None:
            controller = getattr(mic, "controller", None)
        self.controller = controller
        self.spans = SpanLog()
        self._histograms: dict[tuple[str, tuple[tuple[str, str], ...]], Histogram] = {}
        #: host name -> its ``net.packet_latency_s`` histogram, resolved once
        #: (on_host_rx runs per delivered packet)
        self._rx_latency: dict[str, Histogram] = {}
        self.timeline: Optional[MetricsTimeline] = None
        #: the self-profiler (repro.obs.prof.Profiler) Profiler.hook() wired
        #: in, read by snapshot(); None = off and snapshots carry no profile
        #: section.
        self.profiler = None

    # -- construction -------------------------------------------------------
    @classmethod
    def attach(
        cls,
        net: "Network",
        mic: Optional["MimicController"] = None,
        controller: Optional["Controller"] = None,
    ) -> "Observer":
        """Create an observer and wire it into the run's hook points.

        Wraps every host's ``receive`` (packet-latency observations), sets
        ``mic.obs`` on the MIC app (control-plane spans) and registers as
        ``net.observer``.  A network that already has an observer raises
        ``ValueError``.
        """
        if net.observer is not None:
            raise ValueError(
                f"{net.observer!r} is already attached to this network; "
                f"detach it first"
            )
        obs = cls(net, mic=mic, controller=controller)
        wrap(obs, "receive", cls._receive, net.hosts())
        if mic is not None:
            mic.obs = obs
        net.observer = obs
        return obs

    @staticmethod
    def _receive(link: tuple, packet: "Packet", in_port: int) -> None:
        """``host.receive``, observing each packet it accepts (``packets_received`` moved)."""
        obs, host, inner = link
        before = host.packets_received
        inner(packet, in_port)
        if host.packets_received != before:
            obs.on_host_rx(host, packet)

    def detach(self) -> None:
        """Unhook from the network and MC (observation stops immediately)."""
        if self.net.observer is self:
            self.net.observer = None
            unwrap(self, "receive", self.net.hosts())
        if self.mic is not None and getattr(self.mic, "obs", None) is self:
            self.mic.obs = None
        self.stop_timeline()

    # -- histograms ---------------------------------------------------------
    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The accumulating histogram for (name, labels), created on demand."""
        key = (name, labels_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        return hist

    # -- spans --------------------------------------------------------------
    def begin_span(self, name: str, **labels: Any) -> Span:
        """Open a span starting now; call ``finish()`` on it to record."""
        return Span(self.spans, self.sim, name, labels)

    # -- hot-path hooks -----------------------------------------------------
    def on_host_rx(self, host: "Host", packet: "Packet") -> None:
        """Observe one delivered packet's source-to-sink latency."""
        created = getattr(packet, "created_at", None)
        if created is not None:
            hist = self._rx_latency.get(host.name)
            if hist is None:
                hist = self._rx_latency[host.name] = self.histogram(
                    "net.packet_latency_s", host=host.name
                )
            hist.observe(self.sim.now - created)

    # -- timeline -----------------------------------------------------------
    def start_timeline(self, period_s: float) -> MetricsTimeline:
        """Start (or return the already-running) periodic gauge sampler."""
        if self.timeline is None:
            self.timeline = MetricsTimeline(self, period_s)
        self.timeline.start()
        return self.timeline

    def stop_timeline(self) -> None:
        """Stop the periodic sampler if one is running."""
        if self.timeline is not None:
            self.timeline.stop()

    # -- topology -----------------------------------------------------------
    def channels(self) -> Iterator["Channel"]:
        """Every directed link channel in the network, stable order."""
        for link in self.net.links:
            yield link.forward
            yield link.reverse

    # -- snapshot -----------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Derive every contracted counter/gauge from the live objects."""
        snap = MetricsSnapshot(sim_time_s=self.sim.now)
        self._snapshot_switches(snap)
        self._snapshot_ports(snap)
        self._snapshot_hosts(snap)
        self._snapshot_nodes(snap)
        self._snapshot_control(snap)
        self._snapshot_fluid(snap)
        self._snapshot_prof(snap)
        for (name, key), hist in sorted(self._histograms.items()):
            snap.histograms[(name, key)] = hist.summary()
        snap.spans = list(self.spans)
        return snap

    def _snapshot_switches(self, snap: MetricsSnapshot) -> None:
        for sw in self.net.switches():
            snap.add("switch.table.entries", len(sw.table), switch=sw.name)
            snap.add("switch.forwarded.packets", sw.packets_forwarded, switch=sw.name)
            snap.add("switch.punted.packets", sw.packets_punted, switch=sw.name)
            for e in sw.table.iter_entries():
                labels = dict(
                    switch=sw.name, entry_id=e.entry_id,
                    cookie=e.cookie, priority=e.priority,
                )
                snap.add("switch.rule.packets", e.packet_count, **labels)
                snap.add("switch.rule.bytes", e.byte_count, **labels)
                snap.add("switch.rule.last_hit_s", e.last_hit_s, **labels)

    def _snapshot_ports(self, snap: MetricsSnapshot) -> None:
        # Port counters come from the directed channels: a channel's stats
        # are tx at its source port and rx at its destination port.  The rx
        # reading counts packets the far end has accepted for transmission,
        # so in-flight packets appear up to one queue-plus-propagation delay
        # early; at run completion (drained event heap) tx == rx exactly.
        for ch in self.channels():
            snap.add("port.tx.packets", ch.stats.packets, node=ch.src.name, port=ch.src_port)
            snap.add("port.tx.bytes", ch.stats.bytes, node=ch.src.name, port=ch.src_port)
            snap.add("port.tx.drops", ch.stats.drops, node=ch.src.name, port=ch.src_port)
            snap.add("port.rx.packets", ch.stats.packets, node=ch.dst.name, port=ch.dst_port)
            snap.add("port.rx.bytes", ch.stats.bytes, node=ch.dst.name, port=ch.dst_port)
            snap.add("link.queue.bytes", ch.backlog_bytes(), channel=ch.name)
            snap.add("link.queue.capacity.bytes", ch.queue_bytes, channel=ch.name)

    def _snapshot_hosts(self, snap: MetricsSnapshot) -> None:
        for host in self.net.hosts():
            snap.add("host.stack.tx.packets", host.packets_sent, host=host.name)
            snap.add("host.stack.tx.bytes", host.bytes_sent, host=host.name)
            snap.add("host.stack.rx.packets", host.packets_received, host=host.name)
            snap.add("host.stack.rx.bytes", host.bytes_received, host=host.name)

    def _snapshot_nodes(self, snap: MetricsSnapshot) -> None:
        for name, node in sorted(self.net.nodes.items()):
            snap.add("node.cpu.busy_s", node.cpu.busy_s, node=name)

    def _snapshot_fluid(self, snap: MetricsSnapshot) -> None:
        # Hybrid-engine counters, present only when one is attached — so a
        # packet-only run's snapshot stays exactly what it was before the
        # fluid layer existed.
        eng = getattr(self.net, "hybrid", None)
        if eng is None:
            return
        snap.add("fluid.flows.live", eng.live_flows)
        snap.add("fluid.flows.finished", eng.finished_flows)
        snap.add("fluid.peers.live", eng.live_peers)
        snap.add("fluid.epochs", eng.epochs)
        snap.add("fluid.solver.resolves", eng.solver.resolves)
        snap.add("fluid.bytes.advanced", eng.bytes_advanced)
        snap.add("fluid.handoff.debited.bytes", eng.debited_bytes)
        for ch in self.channels():
            snap.add("fluid.link.load_bps", ch.fluid_load_bps, channel=ch.name)

    def _snapshot_prof(self, snap: MetricsSnapshot) -> None:
        # Self-profiling metrics, present only when a Profiler is hooked —
        # an unprofiled run's snapshot stays exactly what it was before.
        prof = self.profiler
        if prof is None:
            return
        report = prof.report()
        for row in report.subsystems:
            snap.add("prof.calls", row["calls"], subsystem=row["name"])
            snap.add("prof.self_ns", row["self_ns"], subsystem=row["name"])
            snap.add("prof.cum_ns", row["cum_ns"], subsystem=row["name"])
        snap.profile = report.to_doc()

    def _snapshot_control(self, snap: MetricsSnapshot) -> None:
        if self.controller is not None:
            snap.add("ctrl.packet_in.count", self.controller.packet_in_count)
            snap.add("ctrl.flow_mods.sent", self.controller.flow_mods_sent)
            snap.add("ctrl.flow_mods.lost", self.controller.flow_mods_lost)
            snap.add("ctrl.flow_mods.retried", self.controller.flow_mods_retried)
        if self.mic is not None:
            snap.add("mic.requests.served", self.mic.requests_served)
            snap.add("mic.channels.live", self.mic.live_channels)
            snap.add("mic.flows.live", self.mic.planner.flow_ids.live_count)
            snap.add("mic.flows.parked", self.mic.parked_flows)
            snap.add("mic.rules.installed", sum(self.mic.rule_footprint().values()))
            snap.add("mic.cpu.busy_s", self.mic.cpu_busy_s)
            snap.add("mic.repairs.completed", self.mic.repairs_completed)
            snap.add("mic.repairs.parked", self.mic.repairs_parked)
            snap.add("mic.resyncs.completed", self.mic.resyncs_completed)
            # Sharded control plane only (>= 2 shards), so these samples
            # never appear in an unsharded run's snapshots.
            if self.mic.n_shards >= 2:
                snap.add("mic.shard.alive", len(self.mic.alive_shards()))
                snap.add("mic.shard.failovers", self.mic.failovers)
                snap.add("mic.shard.channels.adopted",
                         self.mic.channels_adopted)
                for sh in self.mic.shards:
                    label = str(sh.shard_id)
                    snap.add("mic.shard.requests.served",
                             sh.requests_served, shard=label)
                    snap.add("mic.shard.channels.live",
                             len(sh.channels), shard=label)
                    snap.add("mic.shard.installs.routed",
                             sh.installs_issued, shard=label)
            strat = getattr(self.mic, "strategy", None)
            if strat is not None:
                snap.add("anonymity.strategy", 1, strategy=strat.name)
                snap.add("anonymity.rotations.completed",
                         strat.rotations_completed)
                snap.add("anonymity.rotation.installs",
                         strat.rotation_installs)
                snap.add("anonymity.aliases.live", strat.live_aliases)

    # -- reporting ----------------------------------------------------------
    def summary(self) -> str:
        """A human-readable run summary (counters, percentiles, spans)."""
        snap = self.snapshot()
        lines = [f"observability summary @ t={snap.sim_time_s:.6f}s"]
        if self.mic is not None and getattr(self.mic, "strategy", None):
            strat = self.mic.strategy
            lines.append(
                f"  anonymity: strategy={strat.name} "
                f"rotations={strat.rotations_completed} "
                f"rotation_installs={strat.rotation_installs} "
                f"aliases={strat.live_aliases}"
            )
        lines.append(f"  counters/gauges: {len(snap.samples)} samples")
        for name in ("switch.forwarded.packets", "switch.punted.packets",
                     "port.tx.drops", "host.stack.rx.packets"):
            total = snap.total(name)
            lines.append(f"    {name:<28s} total={total:g}")
        if snap.histograms:
            lines.append("  histograms:")
            for (name, key), s in sorted(snap.histograms.items()):
                label_txt = ",".join(f"{k}={v}" for k, v in key) or "-"
                lines.append(
                    f"    {name} [{label_txt}] n={int(s['count'])} "
                    f"mean={s['mean']:.3e} p50={s['p50']:.3e} "
                    f"p95={s['p95']:.3e} p99={s['p99']:.3e}"
                )
        if len(self.spans):
            lines.append("  spans:")
            by_name: dict[str, list[float]] = {}
            for rec in self.spans:
                by_name.setdefault(rec.name, []).append(rec.duration_s)
            for name, durs in sorted(by_name.items()):
                mean = sum(durs) / len(durs)
                lines.append(
                    f"    {name:<18s} n={len(durs)} mean={mean:.3e}s "
                    f"total={sum(durs):.3e}s"
                )
        return "\n".join(lines)
