"""Hybrid fluid/packet simulation engine.

Packet-level simulation of a fat-tree carrying thousands of bulk m-flows
spends almost all of its events on packets whose individual fates are
uninteresting: long transfers settle at a bandwidth-sharing fixed point.
The hybrid engine moves that bulk to **fluid fidelity** — each flow is a
rate advanced once per epoch by the incremental max-min solver
(:class:`~repro.net.fluid.FluidSolver`) — while a sampled subset, plus
anything an observer actually needs to see packet-by-packet, stays on the
packet engine.

The two fidelities meet at an explicit, contracted boundary
(``docs/scale.md`` carries the same table, test-diffed both ways):

* fluid background load debits the serialization bandwidth packet flows
  see on shared links (:meth:`Channel.effective_bandwidth_bps`);
* packet-level bytes measured on shared links are debited from the
  capacity the fluid allocation may fill (``FluidSolver.set_external_load``),
  one epoch behind (measure-then-apply).

Epoch advancement rides :class:`~repro.sim.Periodic` — one heap event per
epoch regardless of flow count.  The ticker starts lazily with the first
fluid flow and stops when the last one finishes, so an engine with no
fluid flows (sample rate 1.0) schedules nothing and the run stays
byte-identical to a bare packet engine — the same opt-in guarantee every
prior layer (obs, faults, lint) ships with.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..sim import Event, Periodic, SimulationError
from .fluid import FluidSolver

if TYPE_CHECKING:  # pragma: no cover
    from .link import Channel
    from .network import Network

__all__ = [
    "HANDOFF_CONTRACT",
    "PACKET_PINS",
    "WIRE_EFFICIENCY",
    "FluidTransfer",
    "HandoffInvariant",
    "HybridEngine",
    "PacketPin",
    "format_handoff_table",
    "format_pin_table",
]

#: TCP goodput per wire byte: MSS 1460 over 1514 on-the-wire bytes
#: (ETH 14 + IP 20 + TCP 20 headers).  Fluid flows advance *wire* bytes so
#: their rates are comparable with packet-level link counters; goodput is
#: reported through this factor.
WIRE_EFFICIENCY = 1460.0 / 1514.0


# ---------------------------------------------------------------------------
# The fidelity-boundary contract.  docs/scale.md embeds the rendered tables;
# tests/net/test_scale_contract.py diffs them both ways.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HandoffInvariant:
    """One registered invariant of the fluid/packet hand-off."""

    name: str
    statement: str


HANDOFF_CONTRACT: tuple[HandoffInvariant, ...] = (
    HandoffInvariant(
        "background-load",
        "Fluid link loads are published to `Channel.fluid_load_bps` every "
        "epoch; packet serialization and backlog estimates use "
        "`effective_bandwidth_bps = max(capacity - fluid_load, 1% floor)`.",
    ),
    HandoffInvariant(
        "peer-share",
        "A pinned packet flow registered via `HybridEngine.peer_flow` joins "
        "the max-min allocation as a first-class flow; its reservation — "
        "its share in a nominal solve over raw capacities, without external "
        "debits — is excluded from the measured debit and from the "
        "published fluid load, so pinned flows converge to fair shares "
        "against the fluid background instead of starving it or being "
        "starved.",
    ),
    HandoffInvariant(
        "capacity-debit",
        "Packet-level bytes carried on a fluid-shared link are measured per "
        "epoch and debited — net of reserved peer shares — from the "
        "capacity the fluid allocation may fill "
        "(`FluidSolver.set_external_load`).",
    ),
    HandoffInvariant(
        "conservation",
        "Packet bytes measured at the boundary equal the bytes the shared "
        "channels' counters carried over the same epochs "
        "(`HybridEngine.debited_bytes`, test-enforced).",
    ),
    HandoffInvariant(
        "epoch-churn",
        "Flow add/finish, link capacity changes and external-load updates "
        "dirty the allocation; rates re-solve lazily at the next epoch tick, "
        "so quiet epochs cost one advance pass and zero solves.",
    ),
    HandoffInvariant(
        "interpolated-finish",
        "A fluid flow finishing mid-epoch gets its finish time interpolated "
        "from its last allocated rate, not rounded to the epoch edge; its "
        "`done` event fires at the tick that observes completion.",
    ),
    HandoffInvariant(
        "no-fluid-no-op",
        "With zero fluid flows the engine schedules nothing and every "
        "`fluid_load_bps` is 0.0, so a sample-rate-1.0 hybrid run is "
        "byte-identical to the bare packet engine (test-enforced).",
    ),
    HandoffInvariant(
        "fluid-blindness",
        "Fluid flows emit no packets: journeys, traces, switch counters and "
        "attack observers cannot see them.  Any flow a subsystem must "
        "observe packet-by-packet is pinned to packet fidelity instead.",
    ),
)


@dataclass(frozen=True)
class PacketPin:
    """One subsystem that forces flows to packet fidelity."""

    subsystem: str
    trigger: str
    effect: str


PACKET_PINS: tuple[PacketPin, ...] = (
    PacketPin(
        "operator",
        "`pin_node`/`pin_nodes` named a flow endpoint, or the engine's "
        "sample hash selected the flow id",
        "flow runs packet-level from the start",
    ),
    PacketPin(
        "journey",
        "a `repro.obs.journey.JourneyRecorder` with live hooks is attached "
        "to the fabric's channels",
        "all new flows pin (fluid flows would be invisible to journeys)",
    ),
    PacketPin(
        "fault",
        "`pin_from_schedule` registered the endpoints named by a fault "
        "schedule's link-flap/crash/partition specs",
        "flows touching fault-targeted nodes run packet-level",
    ),
    PacketPin(
        "attack",
        "`pin_from_schedule` / `pin_nodes` covering adversary-observed "
        "vantage nodes (compromised switches, probe endpoints)",
        "probed flows stay visible to `repro.attacks` observers",
    ),
)


def format_handoff_table(invariants: Iterable[HandoffInvariant]) -> str:
    """Render hand-off invariants as the markdown table docs embed."""
    lines = [
        "| invariant | statement |",
        "| --- | --- |",
    ]
    for inv in invariants:
        lines.append(f"| `{inv.name}` | {inv.statement} |")
    return "\n".join(lines)


def format_pin_table(pins: Iterable[PacketPin]) -> str:
    """Render packet-pin subsystems as the markdown table docs embed."""
    lines = [
        "| subsystem | trigger | effect |",
        "| --- | --- | --- |",
    ]
    for pin in pins:
        lines.append(f"| `{pin.subsystem}` | {pin.trigger} | {pin.effect} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fluid flow handle
# ---------------------------------------------------------------------------
class FluidTransfer:
    """Handle for one bulk transfer advanced at fluid fidelity.

    ``payload_bytes`` is application goodput (what an iperf-style workload
    reports); the engine advances ``wire_bytes = payload / WIRE_EFFICIENCY``
    against the allocated link rate so fluid and packet link counters are
    commensurable.  ``done`` is a sim :class:`~repro.sim.Event` succeeding
    with this handle when the transfer completes.
    """

    __slots__ = (
        "flow_id",
        "path",
        "links",
        "payload_bytes",
        "wire_bytes",
        "advanced_bytes",
        "started_s",
        "finished_s",
        "done",
    )

    def __init__(
        self,
        flow_id: str,
        path: Sequence[str],
        links: Sequence[str],
        payload_bytes: int,
        started_s: float,
        done: Event,
    ):
        self.flow_id = flow_id
        self.path = tuple(path)
        #: names of the directed channels along ``path``
        self.links = tuple(links)
        self.payload_bytes = payload_bytes
        self.wire_bytes = payload_bytes / WIRE_EFFICIENCY
        self.advanced_bytes = 0.0
        self.started_s = started_s
        self.finished_s: Optional[float] = None
        self.done = done

    @property
    def finished(self) -> bool:
        """True once the engine observed this transfer complete."""
        return self.finished_s is not None

    def goodput_bps(self) -> float:
        """Application goodput over the transfer's lifetime (finished only)."""
        if self.finished_s is None:
            raise SimulationError(f"flow {self.flow_id} has not finished")
        duration = self.finished_s - self.started_s
        if duration <= 0:
            return float("inf")
        return self.payload_bytes * 8.0 / duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"done@{self.finished_s:.6f}" if self.finished else "live"
        return f"FluidTransfer({self.flow_id}, {self.payload_bytes}B, {state})"


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
class HybridEngine:
    """Epoch-driven fluid rate advancement over a live :class:`Network`.

    ``sample_rate`` is the fraction of candidate flows kept at **packet**
    fidelity, decided by a seed-free hash of the flow id
    (:meth:`fidelity_for`) so the choice is stable across runs and
    processes.  1.0 pins everything (byte-identical mode); 0.0 pins nothing
    beyond the registered packet pins.
    """

    def __init__(
        self,
        net: "Network",
        epoch_s: float = 0.010,
        sample_rate: float = 0.0,
    ):
        if epoch_s <= 0:
            raise SimulationError(f"epoch_s must be > 0, got {epoch_s}")
        if not 0.0 <= sample_rate <= 1.0:
            raise SimulationError(f"sample_rate must be in [0,1], got {sample_rate}")
        if net.hybrid is not None:
            raise SimulationError("network already has a hybrid engine attached")
        self.net = net
        self.epoch_s = epoch_s
        self.sample_rate = sample_rate
        self.solver = FluidSolver()
        #: mirror of the flow set over raw capacities (no external debits):
        #: source of the non-circular peer reservations (``peer-share`` row)
        self._nominal = FluidSolver()
        #: directed channel registry keyed by the solver's link id
        self._channels: dict[str, "Channel"] = {}
        for link in net.links:
            for ch in (link.forward, link.reverse):
                self._channels[ch.name] = ch
                self.solver.add_link(ch.name, ch.bandwidth_bps)
                self._nominal.add_link(ch.name, ch.bandwidth_bps)
        self._ticker = Periodic(net.sim, epoch_s, self._epoch_tick)
        self._flows: dict[str, FluidTransfer] = {}
        #: registered packet peers: solver flow id -> link ids on its path
        self._peers: dict[str, tuple[str, ...]] = {}
        #: per-link bandwidth reserved for peers at the last solve
        self._peer_reserved: dict[str, float] = {}
        self._rates: dict[str, float] = {}
        #: channels traversed by >=1 live fluid flow (hand-off boundary)
        self._shared: dict[str, int] = {}
        #: packet byte counters at the last epoch tick, per shared channel
        self._pkt_marks: dict[str, int] = {}
        self._last_tick_s = net.sim.now
        self._pinned_nodes: set[str] = set()
        self._flow_seq = 0
        self._peer_seq = 0
        #: opt-in self-profiler (repro.obs.prof.Profiler); None = off and
        #: the epoch-phase hooks are statically dead.
        self._prof = None
        # -- counters surfaced through the obs contract --
        self.epochs = 0
        self.finished_flows = 0
        self.bytes_advanced = 0.0
        self.debited_bytes = 0.0
        net.hybrid = self

    # -- fidelity decisions -------------------------------------------------
    def pin_node(self, name: str) -> None:
        """Pin every flow touching ``name`` to packet fidelity."""
        self._pinned_nodes.add(name)

    def pin_nodes(self, names: Iterable[str]) -> None:
        """Pin every flow touching any of ``names`` to packet fidelity."""
        self._pinned_nodes.update(names)

    def pin_from_schedule(self, schedule) -> int:
        """Pin the endpoints a fault schedule targets; returns pins added.

        Reads the declarative specs (``LinkFlap.a/b``, ``SwitchCrash.switch``,
        ``ControlPartition.switch`` …) rather than compiled events, so it
        works before or after ``schedule.attach``.
        """
        before = len(self._pinned_nodes)
        for spec in getattr(schedule, "specs", ()):
            for attr in ("a", "b", "switch"):
                name = getattr(spec, attr, None)
                if isinstance(name, str):
                    self._pinned_nodes.add(name)
        return len(self._pinned_nodes) - before

    @property
    def pinned_nodes(self) -> frozenset[str]:
        """The operator/fault/attack pinned node set."""
        return frozenset(self._pinned_nodes)

    def fidelity_for(self, flow_id: str, path: Sequence[str] = ()) -> str:
        """``"packet"`` or ``"fluid"`` for one candidate flow.

        Deterministic and seed-free: the sample decision hashes the flow id
        (crc32 → [0,1)), so the same id lands on the same side of the
        boundary in every run and process.  Registered pins override the
        sample (see :data:`PACKET_PINS`).
        """
        if self.sample_rate >= 1.0:
            return "packet"
        if self._pinned_nodes and any(n in self._pinned_nodes for n in path):
            return "packet"
        if self.net.journey is not None:
            # a recorder hooked the fabric's channels: fluid flows would be
            # invisible to it
            return "packet"
        draw = zlib.crc32(flow_id.encode("utf-8")) / 2**32
        if draw < self.sample_rate:
            return "packet"
        return "fluid"

    # -- flow lifecycle -----------------------------------------------------
    def _channels_on(self, path: Sequence[str]) -> list["Channel"]:
        chans: list["Channel"] = []
        for a, b in zip(path, path[1:]):
            link = self.net.link_between(a, b)
            ch = link.forward if link.forward.src.name == a else link.reverse
            chans.append(ch)
        return chans

    def start_flow(
        self,
        path: Sequence[str],
        payload_bytes: int,
        flow_id: Optional[str] = None,
        rate_cap_bps: Optional[float] = None,
    ) -> FluidTransfer:
        """Start one fluid transfer along ``path`` (node names, src→dst).

        The first flow starts the epoch ticker; the allocation re-solves at
        the next tick.  Returns the :class:`FluidTransfer` handle.
        """
        if len(path) < 2:
            raise SimulationError("fluid flow path needs at least two nodes")
        if payload_bytes <= 0:
            raise SimulationError("payload_bytes must be > 0")
        if flow_id is None:
            flow_id = f"fluid-{self._flow_seq}"
        self._flow_seq += 1
        if flow_id in self._flows:
            raise SimulationError(f"duplicate fluid flow id {flow_id!r}")
        chans = self._channels_on(path)
        link_ids = [c.name for c in chans]
        self.solver.add_flow(flow_id, link_ids, rate_cap_bps=rate_cap_bps)
        self._nominal.add_flow(flow_id, link_ids, rate_cap_bps=rate_cap_bps)
        done = Event(self.net.sim)
        fc = FluidTransfer(
            flow_id, path, link_ids, payload_bytes, self.net.sim.now, done
        )
        self._flows[flow_id] = fc
        for c in chans:
            n = self._shared.get(c.name, 0)
            self._shared[c.name] = n + 1
            if n == 0:
                self._pkt_marks[c.name] = c.stats.bytes
        if not self._ticker.running:
            self._last_tick_s = self.net.sim.now
            self._ticker.start()
        return fc

    @property
    def live_flows(self) -> int:
        """Number of fluid flows currently advancing."""
        return len(self._flows)

    # -- packet peers -------------------------------------------------------
    def peer_flow(
        self,
        path: Sequence[str],
        flow_id: Optional[str] = None,
        rate_cap_bps: Optional[float] = None,
    ) -> str:
        """Register a pinned packet flow as a max-min peer; returns its id.

        The peer's allocated share is reserved out of the fluid load its
        links publish, so the packet flow's own congestion control can fill
        that share instead of fighting the fluid background (the
        ``peer-share`` invariant).  Call :meth:`end_peer` with the returned
        id when the packet flow completes.
        """
        if len(path) < 2:
            raise SimulationError("peer flow path needs at least two nodes")
        if flow_id is None:
            flow_id = f"peer-{self._peer_seq}"
        self._peer_seq += 1
        pid = f"pkt:{flow_id}"
        chans = self._channels_on(path)
        link_ids = [c.name for c in chans]
        self.solver.add_flow(pid, link_ids, rate_cap_bps=rate_cap_bps)
        self._nominal.add_flow(pid, link_ids, rate_cap_bps=rate_cap_bps)
        self._peers[pid] = tuple(link_ids)
        return pid

    def end_peer(self, peer_id: str) -> None:
        """Release a registered packet peer's reserved share."""
        self._peers.pop(peer_id)
        self.solver.remove_flow(peer_id)
        self._nominal.remove_flow(peer_id)

    @property
    def live_peers(self) -> int:
        """Number of packet peers currently holding a reservation."""
        return len(self._peers)

    def _finish_flow(self, fc: FluidTransfer, finished_s: float) -> None:
        fc.finished_s = finished_s
        fc.advanced_bytes = fc.wire_bytes
        self.finished_flows += 1
        for name in fc.links:
            n = self._shared[name] - 1
            if n:
                self._shared[name] = n
            else:
                del self._shared[name]
                self._pkt_marks.pop(name, None)
                # the debit this channel carried dies with the boundary
                self.solver.set_external_load(name, 0.0)
        self.solver.remove_flow(fc.flow_id)
        self._nominal.remove_flow(fc.flow_id)
        del self._flows[fc.flow_id]
        self._rates.pop(fc.flow_id, None)
        fc.done.succeed(fc)

    # -- epoch machinery ----------------------------------------------------
    def _epoch_tick(self) -> None:
        """One epoch: measure packet debits, re-solve, advance, publish.

        The freshly solved rates apply retroactively over the epoch that
        just elapsed — flows added at the previous tick advance from that
        instant instead of idling one epoch (a bias transfers shorter than
        ~20 epochs would notice).  Flows added *mid*-epoch over-advance by
        at most one epoch of bytes; the fidelity tests bound that error.
        """
        now = self.net.sim.now
        dt = now - self._last_tick_s
        self._last_tick_s = now
        self.epochs += 1
        prof = self._prof
        if prof is None:
            self._measure_phase(dt)
            if self._flows:
                self._publish_phase()
                self._advance_phase(now, dt)
        else:
            prof.enter("hybrid.epoch")
            try:
                prof.enter("hybrid.measure")
                try:
                    self._measure_phase(dt)
                finally:
                    prof.exit()
                if self._flows:
                    # the solve inside nests its own fluid.solve frame
                    self._publish_phase()
                    prof.enter("hybrid.advance")
                    try:
                        self._advance_phase(now, dt)
                    finally:
                        prof.exit()
            finally:
                prof.exit()
        self._maybe_quiesce()

    def _measure_phase(self, dt: float) -> None:
        # 0. Refresh peer reservations from the nominal allocation (raw
        #    capacities, no external debits — breaks the measure/reserve
        #    circularity that would otherwise starve registered peers).
        if self._peers:
            if self._nominal.dirty:
                nrates = self._nominal.rates()
                reserved: dict[str, float] = {}
                for pid, links in self._peers.items():
                    r = nrates.get(pid, 0.0)
                    if r and r != float("inf"):
                        for l in links:
                            reserved[l] = reserved.get(l, 0.0) + r
                self._peer_reserved = reserved
        elif self._peer_reserved:
            self._peer_reserved = {}

        # 1. Measure packet bytes carried on shared links over the epoch
        #    and debit them — net of reserved peer shares — from the
        #    fluid-fillable capacity.
        if dt > 0:
            for name in self._shared:
                ch = self._channels[name]
                mark = self._pkt_marks.get(name, ch.stats.bytes)
                delta_bytes = ch.stats.bytes - mark
                self._pkt_marks[name] = ch.stats.bytes
                self.debited_bytes += delta_bytes
                reserved = self._peer_reserved.get(name, 0.0)
                load_bps = max(delta_bytes * 8.0 / dt - reserved, 0.0)
                self.solver.set_external_load(name, load_bps)

    def _publish_phase(self) -> None:
        # 2. Re-solve (lazy: a clean allocation costs nothing) and
        #    publish the fluid background load to the packet engine —
        #    total allocated load minus the shares reserved for peers.
        was_dirty = self.solver.dirty
        self._rates = self.solver.rates()
        if was_dirty:
            loads = self.solver.link_fluid_load_bps()
            peer_load: dict[str, float] = {}
            for pid, links in self._peers.items():
                r = self._rates.get(pid, 0.0)
                if r and r != float("inf"):
                    for l in links:
                        peer_load[l] = peer_load.get(l, 0.0) + r
            for name, ch in self._channels.items():
                ch.fluid_load_bps = max(
                    loads.get(name, 0.0) - peer_load.get(name, 0.0), 0.0
                )

    def _advance_phase(self, now: float, dt: float) -> None:
        # 3. Advance live flows over the elapsed epoch.
        if dt > 0:
            finished: list[tuple[FluidTransfer, float]] = []
            for fid, fc in self._flows.items():
                rate = self._rates.get(fid, 0.0)
                if rate <= 0:
                    continue
                if rate == float("inf"):
                    finished.append((fc, now - dt))
                    continue
                delta = rate * dt / 8.0
                remaining = fc.wire_bytes - fc.advanced_bytes
                if delta >= remaining:
                    # interpolated-finish: back out the sub-epoch instant
                    self.bytes_advanced += remaining
                    finished.append((fc, now - dt + remaining * 8.0 / rate))
                else:
                    fc.advanced_bytes += delta
                    self.bytes_advanced += delta
            for fc, at_s in finished:
                self._finish_flow(fc, at_s)

    def _maybe_quiesce(self) -> None:
        if not self._flows:
            # quiesce: clear published loads and stop scheduling, so the
            # simulator can drain and a fluid-free run stays byte-identical
            self._rates = {}
            self._peer_reserved = {}
            for ch in self._channels.values():
                ch.fluid_load_bps = 0.0
            self._ticker.stop()

    # -- views --------------------------------------------------------------
    def link_fluid_load_bps(self) -> dict[str, float]:
        """Current published fluid load per directed channel name."""
        return {
            name: ch.fluid_load_bps
            for name, ch in self._channels.items()
            if ch.fluid_load_bps
        }
