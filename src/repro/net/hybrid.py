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

import math
import zlib
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

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

_BYTES = attrgetter("bytes")
_WIRE_BYTES = attrgetter("wire_bytes")
_STARTED_S = attrgetter("started_s")


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
        "from its last allocated rate, not rounded to the epoch edge — from "
        "the epoch's start, or from its own start if it began mid-epoch, so "
        "it never finishes before it starts; its `done` event fires at the "
        "tick that observes completion.",
    ),
    HandoffInvariant(
        "no-fluid-no-op",
        "With zero fluid flows the engine schedules nothing and every "
        "`fluid_load_bps` is 0.0, so a sample-rate-1.0 hybrid run is "
        "byte-identical to the bare packet engine (test-enforced).",
    ),
    HandoffInvariant(
        "fluid-blindness",
        "Fluid flows emit no packets: journeys, switch counters and attack "
        "observers cannot see them.  Any flow a subsystem must "
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

    While the transfer is live its progress lives in the engine's per-flow
    arrays; :attr:`advanced_bytes` reads it from there.
    """

    __slots__ = (
        "flow_id",
        "path",
        "links",
        "payload_bytes",
        "wire_bytes",
        "started_s",
        "finished_s",
        "done",
        "_engine",
        "_advanced",
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
        self.started_s = started_s
        self.finished_s: Optional[float] = None
        self.done = done
        #: the engine advancing this transfer; None once finished
        self._engine: Optional["HybridEngine"] = None
        self._advanced = 0.0

    @property
    def advanced_bytes(self) -> float:
        """Wire bytes advanced so far (``wire_bytes`` once finished)."""
        engine = self._engine
        if engine is None:
            return self._advanced
        return engine._advanced_bytes_of(self.flow_id)

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
        if not epoch_s > 0:  # nan included
            raise SimulationError(f"epoch_s must be > 0, got {epoch_s}")
        if not 0.0 <= sample_rate <= 1.0:
            raise SimulationError(f"sample_rate must be in [0,1], got {sample_rate}")
        if net.hybrid is not None:
            raise SimulationError("network already has a hybrid engine attached")
        self.net = net
        self.epoch_s = epoch_s
        self.sample_rate = sample_rate
        #: directed channels; a channel's index is its row in the solver
        #: and in the per-channel arrays below
        self._channels: list["Channel"] = [
            ch for link in net.links for ch in (link.forward, link.reverse)
        ]
        #: the one solver: its rates and, for peer reservations, its
        #: nominal solve over raw capacities (``peer-share`` row)
        self.solver = FluidSolver({ch.name: ch.bandwidth_bps for ch in self._channels})
        #: node -> next node -> row of the channel between them; a later
        #: parallel link wins, as in ``net.link_between``
        self._next_row: dict[str, dict[str, int]] = {}
        for row, ch in enumerate(self._channels):
            self._next_row.setdefault(ch.src.name, {})[ch.dst.name] = row
        #: the channels' names, i.e. the solver's link ids, by row
        self._names = [ch.name for ch in self._channels]
        #: the channels' packet counters (``Channel.stats`` is never replaced)
        self._stats = [ch.stats for ch in self._channels]
        n = len(self._channels)
        # -- per-channel state, by row --
        #: live fluid flows per channel; > 0 marks the hand-off boundary (a
        #: list: ``start_flow`` counts per hop without numpy scalars)
        self._users = [0] * n
        #: packet byte counter at the last epoch tick (meaningful while shared)
        self._marks = np.zeros(n, dtype=np.int64)
        #: external load last handed to ``solver.set_external_load``
        self._debit = np.zeros(n)
        #: bandwidth reserved for peers at the last measure phase
        self._reserved = np.zeros(n)
        #: ``fluid_load_bps`` last written to each channel
        self._published = np.zeros(n)
        # -- per-flow state, in ``_flows`` order --
        self._flows: dict[str, FluidTransfer] = {}
        #: wire-byte targets and progress of the flows the last advance saw;
        #: flows started since then are appended by the next advance
        self._wire = np.zeros(0)
        self._advanced = np.zeros(0)
        #: allocated rates in ``_flows`` order, built from the solve numbered
        #: ``_rates_solve``
        self._rates = np.zeros(0)
        self._rates_solve = -1
        #: flow id -> index into the per-flow arrays, built on demand
        self._flow_index: Optional[dict[str, int]] = None
        #: registered packet peers: solver flow id -> channel rows on its path
        self._peers: dict[str, tuple[int, ...]] = {}
        self._ticker = Periodic(net.sim, epoch_s, self._epoch_tick)
        self._last_tick_s = net.sim.now
        self._pinned_nodes: set[str] = set()
        self._flow_seq = 0
        self._peer_seq = 0
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
            # a recorder wraps the fabric's channels: fluid flows would be
            # invisible to it
            return "packet"
        draw = zlib.crc32(flow_id.encode("utf-8")) / 2**32
        if draw < self.sample_rate:
            return "packet"
        return "fluid"

    # -- flow lifecycle -----------------------------------------------------
    def _rows_on(self, path: Sequence[str]) -> tuple[int, ...]:
        """Channel rows along ``path`` (KeyError on a non-adjacent hop)."""
        next_row = self._next_row
        return tuple([next_row[a][b] for a, b in zip(path, path[1:])])

    def start_flow(
        self,
        path: Sequence[str],
        payload_bytes: int,
        flow_id: Optional[str] = None,
        rate_cap_bps: Optional[float] = None,
    ) -> FluidTransfer:
        """Start one fluid transfer along ``path`` (node names, src→dst).

        The first flow starts the epoch ticker; the allocation re-solves at
        the next tick.  Returns the :class:`FluidTransfer` handle.  A
        payload that is not finite and > 0, or a ``rate_cap_bps`` that is
        not > 0 (``inf`` is uncapped), is a ``ValueError`` before anything
        is booked: such a flow would never finish.
        """
        if len(path) < 2:
            raise SimulationError("fluid flow path needs at least two nodes")
        if not 0 < payload_bytes < math.inf:
            raise ValueError(f"payload_bytes must be finite and > 0, got {payload_bytes!r}")
        if rate_cap_bps is not None and not rate_cap_bps > 0:
            raise ValueError(f"rate_cap_bps must be > 0, got {rate_cap_bps!r}")
        if flow_id is None:
            flow_id = f"fluid-{self._flow_seq}"
        self._flow_seq += 1
        if flow_id in self._flows:
            raise SimulationError(f"duplicate fluid flow id {flow_id!r}")
        rows = self._rows_on(path)
        self.solver.add_flow_rows(flow_id, rows, rate_cap_bps)
        done = Event(self.net.sim)
        links = tuple(map(self._names.__getitem__, rows))
        fc = FluidTransfer(flow_id, path, links, payload_bytes, self.net.sim.now, done)
        fc._engine = self
        self._flows[flow_id] = fc
        self._flow_index = None
        users, stats, marks = self._users, self._stats, self._marks
        for row in rows:
            if not users[row]:
                marks[row] = stats[row].bytes
            users[row] += 1
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
        rows = self._rows_on(path)
        self.solver.add_flow_rows(pid, rows, rate_cap_bps)
        self._peers[pid] = rows
        return pid

    def end_peer(self, peer_id: str) -> None:
        """Release a registered packet peer's reserved share."""
        self._peers.pop(peer_id)
        self.solver.remove_flow(peer_id)

    @property
    def live_peers(self) -> int:
        """Number of packet peers currently holding a reservation."""
        return len(self._peers)

    def _finish_flows(self, index: np.ndarray, finished_s: np.ndarray) -> None:
        """Finish the flows at ``index`` (ascending) at the given instants.

        The whole batch leaves the engine and the solver first; then the
        ``done`` events succeed in flow order, the order their wake-ups take
        on the event heap.
        """
        handles = list(self._flows.values())
        done = [handles[i] for i in index.tolist()]
        keep = np.ones(len(handles), dtype=bool)
        keep[index] = False
        self._wire = self._wire[keep]
        self._advanced = self._advanced[keep]
        self._flow_index = None
        for fc, at_s in zip(done, finished_s.tolist()):
            fc.finished_s = at_s
            fc._advanced = fc.wire_bytes
            fc._engine = None
            del self._flows[fc.flow_id]
        fids = [fc.flow_id for fc in done]
        # the solver's link rows are the engine's channel rows
        rows = np.fromiter(
            chain.from_iterable(map(self.solver.flow_rows, fids)), dtype=np.intp
        )
        n = len(self._users)
        users = np.fromiter(self._users, np.int64, n) - np.bincount(rows, minlength=n)
        self._users = users.tolist()
        # the debit a channel carried dies with the boundary
        unshared = rows[(users[rows] == 0) & (self._debit[rows] != 0.0)]
        self._debit[unshared] = 0.0
        for row in dict.fromkeys(unshared.tolist()):
            self.solver.set_external_load(self._names[row], 0.0)
        self.solver.remove_flows(fids)
        self.finished_flows += len(done)
        for fc in done:
            fc.done.succeed(fc)

    def _advanced_bytes_of(self, flow_id: str) -> float:
        index = self._flow_index
        if index is None:
            index = self._flow_index = dict(zip(self._flows, range(len(self._flows))))
        i = index[flow_id]
        # a flow started since the last advance has advanced nothing yet
        return float(self._advanced[i]) if i < len(self._advanced) else 0.0

    def _peer_load(self, rates: dict[str, float]) -> np.ndarray:
        """Per channel, the peers' finite nonzero ``rates`` summed in peer order."""
        load = np.zeros(len(self._channels))
        for pid, rows in self._peers.items():
            r = rates.get(pid, 0.0)
            if r and r != float("inf"):
                for row in rows:
                    load[row] += r
        return load

    # -- epoch machinery ----------------------------------------------------
    def _epoch_tick(self) -> None:
        """One epoch: measure packet debits, re-solve, advance, publish.

        The freshly solved rates apply retroactively over the epoch that
        just elapsed — flows added at the previous tick advance from that
        instant instead of idling one epoch (a bias transfers shorter than
        ~20 epochs would notice); a flow added mid-epoch advances from the
        instant it started.
        """
        now = self.net.sim.now
        prev = self._last_tick_s
        dt = now - prev
        self._last_tick_s = now
        self.epochs += 1
        self._measure_phase(dt)
        if self._flows:
            self._publish_phase()
            self._advance_phase(now, dt, prev)
        self._maybe_quiesce()

    def _measure_phase(self, dt: float) -> None:
        # 0. Refresh peer reservations from the nominal allocation (raw
        #    capacities, no external debits — breaks the measure/reserve
        #    circularity that would otherwise starve registered peers).
        #    The nominal solve is cached: only churn re-solves it.
        if self._peers:
            self._reserved = self._peer_load(self.solver.nominal_rates())
        elif self._reserved.any():
            self._reserved = np.zeros(len(self._channels))

        # 1. Measure packet bytes carried on shared links over the epoch
        #    and debit them — net of reserved peer shares — from the
        #    fluid-fillable capacity.  One gather of the byte counters; the
        #    solver hears only of debits that changed.
        shared = np.flatnonzero(np.fromiter(self._users, np.int64, len(self._users)))
        if dt <= 0 or not len(shared):
            return
        carried = np.fromiter(
            map(_BYTES, self._stats), dtype=np.int64, count=len(self._stats)
        )[shared]
        delta = carried - self._marks[shared]
        self._marks[shared] = carried
        # whole byte counts: every running sum is exact below 2**53, so the
        # integer total adds what the per-channel running sum added
        self.debited_bytes += int(delta.sum())
        load = delta * 8.0 / dt - self._reserved[shared]
        load = np.where(0.0 > load, 0.0, load)  # max(load, 0.0); nan stays
        moved = load != self._debit[shared]
        if moved.any():
            rows, load = shared[moved], load[moved]
            self._debit[rows] = load
            for row, value in zip(rows.tolist(), load.tolist()):
                self.solver.set_external_load(self._names[row], value)

    def _publish_phase(self) -> None:
        # 2. Re-solve (lazy: a clean allocation costs nothing) and
        #    publish the fluid background load to the packet engine —
        #    total allocated load minus the shares reserved for peers —
        #    writing only the channels whose load changed.
        solver = self.solver
        was_dirty = solver.dirty
        rates = solver.rates()
        if solver.resolves != self._rates_solve:
            self._rates = np.fromiter(
                map(rates.__getitem__, self._flows),
                dtype=np.float64,
                count=len(self._flows),
            )
            self._rates_solve = solver.resolves
        if was_dirty:
            load = solver.link_load_array()
            if self._peers:
                load = load - self._peer_load(rates)
            fluid = np.where(0.0 > load, 0.0, load)
            changed = np.flatnonzero(fluid != self._published)
            channels = self._channels
            for row, value in zip(changed.tolist(), fluid[changed].tolist()):
                channels[row].fluid_load_bps = value
            self._published = fluid

    def _advance_phase(self, now: float, dt: float, prev: float) -> None:
        # 3. Advance live flows over the elapsed epoch — a flow started
        #    after the previous tick (at ``prev``) over the part it lived.
        if dt <= 0:
            return
        n = len(self._flows)
        span, start = np.full(n, dt), np.full(n, now - dt)
        seen = len(self._advanced)
        if n > seen:
            fresh = list(islice(self._flows.values(), seen, None))
            self._wire = np.concatenate(
                (self._wire, np.fromiter(map(_WIRE_BYTES, fresh), np.float64, n - seen))
            )
            self._advanced = np.concatenate((self._advanced, np.zeros(n - seen)))
            began = np.fromiter(map(_STARTED_S, fresh), np.float64, n - seen)
            late = began > prev
            if late.any():
                span[seen:][late] = now - began[late]
                start[seen:][late] = began[late]
        rate, advanced = self._rates, self._advanced
        moving = ~(rate <= 0)  # nan moves, as it did past `if rate <= 0`
        unbounded = rate == float("inf")
        delta = rate * span / 8.0
        remaining = self._wire - advanced
        finishing = moving & (unbounded | (delta >= remaining))
        advancing = moving & ~finishing
        # bytes_advanced is a running sum in flow order: one accumulate
        gained = np.where(finishing, remaining, delta)[moving & ~unbounded]
        if len(gained):
            self.bytes_advanced = float(
                np.add.accumulate(np.concatenate(([self.bytes_advanced], gained)))[-1]
            )
        self._advanced = np.where(advancing, advanced + delta, advanced)
        index = np.flatnonzero(finishing)
        if len(index):
            # interpolated-finish: back out the sub-epoch instant
            at_s = np.where(
                unbounded[index],
                start[index],
                start[index] + remaining[index] * 8.0 / rate[index],
            )
            self._finish_flows(index, at_s)

    def _maybe_quiesce(self) -> None:
        if not self._flows:
            # quiesce: clear published loads and stop scheduling, so the
            # simulator can drain and a fluid-free run stays byte-identical
            self._reserved = np.zeros(len(self._channels))
            for row in np.flatnonzero(self._published).tolist():
                self._channels[row].fluid_load_bps = 0.0
            self._published = np.zeros(len(self._channels))
            self._ticker.stop()

    # -- views --------------------------------------------------------------
    def link_fluid_load_bps(self) -> dict[str, float]:
        """Current published fluid load per directed channel name."""
        return {
            ch.name: ch.fluid_load_bps
            for ch in self._channels
            if ch.fluid_load_bps
        }
