"""The dict-based epoch ``HybridEngine`` ran before its array pass.

Kept as the differential oracle (``tests/net/test_hybrid_oracle.py``) and the
baseline of the epoch measurement in ``benchmarks/bench_fluid_solver.py``:
per-channel state in dicts keyed by channel name, one Python iteration per
shared channel in the measure phase, per channel in the publish phase and
per flow in the advance phase, one ``_finish_flow`` per finished flow.  The
engine's array pass must leave the same rates, published loads, external
debits, per-flow progress, finish instants and counters, bit for bit, after
every epoch.

``_measure_phase``, ``_publish_phase`` and ``_advance_phase`` are the
replaced methods verbatim with one edit: ``_advance_phase`` takes the
previous tick's instant and advances a flow started after it over the part
of the epoch it lived, from the instant it started (the mid-epoch-start fix
both implementations carry).  The flow lifecycle methods are the replaced
ones too, since the phases read their dicts; only the transfer handle class
differs, because a live ``FluidTransfer`` now reads its progress from the
engine.  The peer reservations come from a mirror ``FluidSolver`` of the
flow set over raw capacities, as they did before the engine's solver grew
its own nominal solve.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.net import FluidSolver, FluidTransfer, HybridEngine
from repro.sim import Event, SimulationError


class OracleTransfer(FluidTransfer):
    """A transfer whose progress is a plain attribute, as it used to be."""

    __slots__ = ("advanced_bytes",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.advanced_bytes = 0.0


class OracleEngine(HybridEngine):
    """``HybridEngine`` with the dict-based flow bookkeeping and epoch phases."""

    def __init__(self, net, epoch_s: float = 0.010, sample_rate: float = 0.0):
        super().__init__(net, epoch_s=epoch_s, sample_rate=sample_rate)
        #: mirror of the flow set over raw capacities (no external debits):
        #: source of the non-circular peer reservations (``peer-share`` row)
        self._nominal = FluidSolver({ch.name: ch.bandwidth_bps for ch in self._channels})
        #: directed channel registry keyed by the solver's link id
        self._channels = {ch.name: ch for ch in self._channels}
        #: registered packet peers: solver flow id -> link ids on its path
        self._peers: dict[str, tuple[str, ...]] = {}
        #: per-link bandwidth reserved for peers at the last solve
        self._peer_reserved: dict[str, float] = {}
        self._rates: dict[str, float] = {}
        #: channels traversed by >=1 live fluid flow (hand-off boundary)
        self._shared: dict[str, int] = {}
        #: packet byte counters at the last epoch tick, per shared channel
        self._pkt_marks: dict[str, int] = {}

    # -- flow lifecycle -----------------------------------------------------
    def _channels_on(self, path: Sequence[str]) -> list:
        chans: list = []
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
        fc = OracleTransfer(
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

    def peer_flow(
        self,
        path: Sequence[str],
        flow_id: Optional[str] = None,
        rate_cap_bps: Optional[float] = None,
    ) -> str:
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
        self._peers.pop(peer_id)
        self.solver.remove_flow(peer_id)
        self._nominal.remove_flow(peer_id)

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

    # -- epoch phases -------------------------------------------------------
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

    def _advance_phase(self, now: float, dt: float, prev: float) -> None:
        # 3. Advance live flows over the elapsed epoch.
        if dt > 0:
            finished: list[tuple[FluidTransfer, float]] = []
            for fid, fc in self._flows.items():
                rate = self._rates.get(fid, 0.0)
                if rate <= 0:
                    continue
                # the one edit: a flow started after the previous tick
                # advances over the part of the epoch it lived
                if fc.started_s > prev:
                    span, start = now - fc.started_s, fc.started_s
                else:
                    span, start = dt, now - dt
                if rate == float("inf"):
                    finished.append((fc, start))
                    continue
                delta = rate * span / 8.0
                remaining = fc.wire_bytes - fc.advanced_bytes
                if delta >= remaining:
                    # interpolated-finish: back out the sub-epoch instant
                    self.bytes_advanced += remaining
                    finished.append((fc, start + remaining * 8.0 / rate))
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

    def link_fluid_load_bps(self) -> dict[str, float]:
        return {
            name: ch.fluid_load_bps
            for name, ch in self._channels.items()
            if ch.fluid_load_bps
        }
