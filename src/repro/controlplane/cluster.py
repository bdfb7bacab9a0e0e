"""The sharded Mimic Controller cluster.

``MimicControllerCluster`` is the single app registered on the SDN
controller (``name = "mic"``, like the controller it scales out).  It
owns N :class:`~repro.controlplane.shard.MimicShard` instances and:

* routes every punted MC request to the shard owning the punting switch
  (channels live on the shard owning their initiator's edge switch),
* routes every bundle to the shard owning its *target* switch, so a
  multi-segment walk's ``install_batch`` fan-out pipelines across shards
  instead of serializing through one MC — under the opt-in
  ``cpu_model="serialized"`` each shard's bundles queue on its own CPU,
  which is what the scalability bench measures,
* fans fault events out to the alive shards (each repairs only its own
  channels),
* implements shard failover: on :meth:`crash_shard` the surviving owner
  of each orphaned channel's edge switch adopts the channel, its stored
  compiled intents, and its parked flows, and re-drives any repair that
  died with the shard — channels survive the crash,
* presents the full duck-typed ``MimicController`` surface (channels,
  compiled intents, counters, strategy, verification) to the observer,
  sanitizer, verifier, scorecard and tests, aggregated across shards.

With ``n_shards=1`` every delegation is a transparent pass-through to a
shard whose attach path is the unsharded controller's own — golden tests
pin that mode byte-identical to :class:`~repro.core.controller.MimicController`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.channel import MimicChannel
from ..core.controller import MC_IP, MC_PORT
from ..net.packet import Packet
from ..net.switch import Switch
from ..obs.spans import begin as begin_span
from ..sdn.controller import Controller, ControllerApp
from ..sim.resources import Resource
from .ownership import OwnershipMap
from .shard import MimicShard

__all__ = ["MimicControllerCluster"]

# trace field names, one shared tuple per record shape (see repro.sim.trace)
_CRASH_KEYS = (
    "shard", "channels_adopted", "repairs_rescheduled", "flows_reparked",
)
_REJOIN_KEYS = ("shard",)


class _ClusterFlowIds:
    """Aggregated flow-ID accounting over the shard partitions."""

    def __init__(self, cluster: "MimicControllerCluster"):
        self._cluster = cluster

    @property
    def live_count(self) -> int:
        return sum(s.flow_ids.live_count for s in self._cluster.shards)

    def is_live(self, fid: int) -> bool:
        return self._cluster.allocator_for(fid).is_live(fid)

    def release(self, fid: int) -> None:
        self._cluster.allocator_for(fid).release(fid)


class _ClusterStrategy:
    """Aggregated read view of the per-shard strategy instances.

    Each shard binds its own :class:`~repro.anonymity.base.Strategy`
    instance (rotation clocks and counters are shard-local); this view
    sums the counters and delegates the stateless operations the
    verifier needs.
    """

    def __init__(self, cluster: "MimicControllerCluster"):
        self._cluster = cluster

    @property
    def name(self) -> str:
        return self._cluster.shards[0].strategy.name

    @property
    def rotations_completed(self) -> int:
        return sum(s.strategy.rotations_completed for s in self._cluster.shards)

    @property
    def rotation_installs(self) -> int:
        return sum(s.strategy.rotation_installs for s in self._cluster.shards)

    @property
    def live_aliases(self) -> int:
        return sum(s.strategy.live_aliases for s in self._cluster.shards)

    def replay_views(self, plan) -> list[tuple]:
        # Stateless w.r.t. the strategy instance (uses only plan fields),
        # so any shard's instance serves the verifier.
        return self._cluster.shards[0].strategy.replay_views(plan)


class MimicControllerCluster(ControllerApp):
    """N-shard Mimic Controller behind a rendezvous ownership map."""

    name = "mic"

    def __init__(
        self,
        n_shards: int = 1,
        ownership_seed: int = 0,
        cpu_model: str = "parallel",
        flowmod_cpu_s: float = 100e-6,
        **mic_kwargs,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if cpu_model not in ("parallel", "serialized"):
            raise ValueError(f"unknown cpu model {cpu_model!r}")
        self.n_shards = n_shards
        self.ownership = OwnershipMap(n_shards, seed=ownership_seed)
        #: "parallel" (default) issues installs immediately — byte-identical
        #: to the unsharded controller; "serialized" charges the owning
        #: shard's single CPU per mod, modelling the control-plane
        #: serialization the paper's Sec VI-C ceiling comes from
        self.cpu_model = cpu_model
        self.flowmod_cpu_s = flowmod_cpu_s
        self.shards = [MimicShard(i, self, **mic_kwargs) for i in range(n_shards)]
        self._alive_ids: tuple[int, ...] = tuple(range(n_shards))
        self._obs = None
        self.failovers = 0
        self.channels_adopted = 0
        self.flows_reparked = 0
        self.repairs_rescheduled = 0
        #: installs whose target switch was owned by a different shard
        #: than the one planning the flow (cross-shard fan-out volume)
        self.remote_installs = 0

    # -- attach -----------------------------------------------------------
    def attach(self, controller: Controller) -> None:
        """Attach shard 0 on the canonical path, then the secondaries."""
        super().attach(controller)
        self.net = controller.network
        self.sim = controller.sim
        primary = self.shards[0]
        primary.attach(controller)
        for shard in self.shards[1:]:
            shard.attach_secondary(controller, primary)
        # Shard 0 keeps its unsharded construction path for byte-identity,
        # then trades its allocator for the partitioned equivalent (the
        # 1-shard partition allocates the identical 0, 1, 2, … sequence).
        from .ownership import PartitionedFlowIdAllocator

        primary.flow_ids = PartitionedFlowIdAllocator(
            primary.flow_ids.n_values, 0, self.n_shards
        )
        if self.cpu_model == "serialized":
            for shard in self.shards:
                shard.cpu = Resource(self.sim, capacity=1)
        self._edge_switch = {
            h: next(
                nb for nb in self.net.topo.neighbors(h)
                if self.net.topo.kind(nb) == "switch"
            )
            for h in self.net.topo.hosts()
        }

    # -- ownership --------------------------------------------------------
    def alive_shards(self) -> tuple[int, ...]:
        """IDs of the currently alive shards."""
        return self._alive_ids

    def owner_of_switch(self, sw_name: str) -> MimicShard:
        """The alive shard owning a switch under the rendezvous map."""
        return self.shards[self.ownership.owner(sw_name, self._alive_ids)]

    def shard_of_host(self, host: str) -> MimicShard:
        """The shard owning a host's channels (its edge switch's owner)."""
        return self.owner_of_switch(self._edge_switch[host])

    def shard_of_channel(self, channel_id: int) -> Optional[MimicShard]:
        """The shard currently holding a live channel, or None."""
        for shard in self.shards:
            if channel_id in shard.channels:
                return shard
        return None

    def allocator_for(self, fid: int):
        """The home partition of a flow ID (by residue class)."""
        return self.shards[fid % self.n_shards].flow_ids

    # -- install fan-out --------------------------------------------------
    def dispatch(self, origin: MimicShard, sw_name: str, entries, groups):
        """Route one bundle to the switch's owning shard; returns its event.

        Under ``cpu_model="serialized"`` the bundle first takes one slot on
        the owner's CPU queue, ``flowmod_cpu_s`` per entry and group.
        """
        n_mods = len(entries) + len(groups)
        prof = getattr(self.sim, "_prof", None)
        if prof is not None:
            with prof.region("controlplane.route"):
                owner = self.owner_of_switch(sw_name)
                prof.count("controlplane.route", "mods.routed", n_mods)
                if owner is not origin:
                    prof.count("controlplane.route", "mods.remote", n_mods)
        else:
            owner = self.owner_of_switch(sw_name)
        owner.installs_issued += n_mods
        if owner is not origin:
            self.remote_installs += n_mods
        if self.cpu_model == "parallel":
            return self.controller.install_batch(sw_name, entries, groups)
        cost = n_mods * self.flowmod_cpu_s
        done = self.sim.event()

        def run():
            yield owner.cpu.request()
            try:
                yield self.sim.timeout(cost)
            finally:
                owner.cpu.release()
            owner.cpu_busy_s += cost
            try:
                result = yield self.controller.install_batch(
                    sw_name, entries, groups
                )
            except Exception as exc:  # mirrored to the caller's barrier
                done.fail(exc)
            else:
                done.succeed(result)

        self.sim.process(run(), name="mic.shard.issue")
        return done

    def request_cpu(self, shard: MimicShard, cpu: float):
        """The per-request compute charge (`_request_cpu` seam)."""
        if self.cpu_model == "parallel":
            yield self.sim.timeout(cpu)
            return
        yield shard.cpu.request()
        try:
            yield self.sim.timeout(cpu)
        finally:
            shard.cpu.release()

    # -- event routing ----------------------------------------------------
    def on_packet_in(self, switch: Switch, packet: Packet, in_port: int) -> bool:
        """Route a punted MC request to the punting switch's owner."""
        if packet.ip_dst != MC_IP or packet.dport != MC_PORT:
            return False
        prof = getattr(self.sim, "_prof", None)
        if prof is not None:
            with prof.region("controlplane.route"):
                shard = self.owner_of_switch(switch.name)
                prof.count("controlplane.route", "requests.routed")
        else:
            shard = self.owner_of_switch(switch.name)
        return shard.on_packet_in(switch, packet, in_port)

    def on_link_event(self, a: str, b: str, up: bool) -> None:
        """Fan a link up/down event out to every alive shard."""
        for shard in self.shards:
            if shard.alive:
                shard.on_link_event(a, b, up)

    def on_switch_event(self, name: str, up: bool) -> None:
        """Fan a switch up/down event out to every alive shard."""
        for shard in self.shards:
            if shard.alive:
                shard.on_switch_event(name, up)

    # -- channel lifecycle (direct-call surface) --------------------------
    def establish(self, initiator: str, responder, **kwargs):
        """Process generator: delegate to the initiator's owning shard."""
        shard = self.shard_of_host(initiator)
        result = yield from shard.establish(initiator, responder, **kwargs)
        return result

    def teardown(self, channel_id: int) -> None:
        """Tear a channel down on whichever shard currently holds it."""
        shard = self.shard_of_channel(channel_id)
        if shard is not None:
            shard.teardown(channel_id)

    def rotate_flow(self, channel: MimicChannel, idx: int) -> bool:
        """Rotate one m-flow on the channel's current owner."""
        shard = self.shard_of_channel(channel.channel_id)
        return shard.rotate_flow(channel, idx) if shard is not None else False

    def channel_of(self, channel_id: int) -> Optional[MimicChannel]:
        """The live channel object, wherever it currently lives."""
        shard = self.shard_of_channel(channel_id)
        return shard.channels.get(channel_id) if shard is not None else None

    # -- failover ---------------------------------------------------------
    def crash_shard(self, shard_id: int) -> None:
        """Kill a shard; survivors adopt its channels from stored intents.

        The dead shard's in-flight generators terminate at their next
        resumption (the ``alive`` guards) without side effects; everything
        durable it owned — channels, compiled intents, parked flows —
        moves to the surviving owner of each channel's edge switch, and
        repairs that died with the shard are re-driven there.
        """
        shard = self.shards[shard_id]
        if not shard.alive:
            return
        shard.alive = False
        self._alive_ids = tuple(
            i for i, s in enumerate(self.shards) if s.alive
        )
        if not self._alive_ids:
            raise RuntimeError("cannot crash the last alive shard")
        self.failovers += 1
        span = begin_span(self._obs, "mic.shard.failover", shard=shard_id)
        was_repairing = set(shard._repairing)
        was_parked = dict(shard._parked)
        shard._repairing.clear()
        shard._parked.clear()
        adopted = 0
        for channel_id, channel in sorted(shard.channels.items()):
            adopter = self.shard_of_host(channel.initiator)
            del shard.channels[channel_id]
            adopter.channels[channel_id] = channel
            adopted += 1
            for idx, plan in enumerate(channel.flows):
                compiled = shard.compiled.pop(plan.cookie, None)
                if compiled is not None:
                    adopter.compiled[plan.cookie] = compiled
                if plan.cookie in was_parked:
                    # Re-park on the adopter (no repairs_parked recount:
                    # the original park already counted) and restart the
                    # backoff loop there.
                    adopter._parked[plan.cookie] = (channel, idx)
                    self.flows_reparked += 1
                    if plan.cookie not in adopter._park_loops:
                        adopter._park_loops.add(plan.cookie)
                        self.sim.process(
                            adopter._parked_retry_loop(plan.cookie),
                            name="mic.park",
                        )
                elif plan.cookie in was_repairing:
                    # The repair died with its shard; re-drive it on the
                    # adopter (its removal scope comes from the adopted
                    # compiled intent, so no rules leak).
                    adopter._schedule_repair(channel, idx)
                    self.repairs_rescheduled += 1
            # Re-arm the adopter's strategy clock (e.g. tarn's rotation
            # loop watches its own shard's channel table).
            adopter.strategy.on_established(channel)
        self.channels_adopted += adopted
        if self.net.trace is not None:
            self.net.trace.emit(
                self.sim.now, "mic.shard.crash", "MC", _CRASH_KEYS,
                shard_id, adopted, len(was_repairing), len(was_parked),
            )
        span.finish(channels_adopted=adopted)

    def rejoin_shard(self, shard_id: int) -> None:
        """Bring a crashed shard back (adopted channels do not fail back)."""
        shard = self.shards[shard_id]
        if shard.alive:
            return
        shard.alive = True
        self._alive_ids = tuple(
            i for i, s in enumerate(self.shards) if s.alive
        )
        if self.net.trace is not None:
            self.net.trace.emit(
                self.sim.now, "mic.shard.rejoin", "MC", _REJOIN_KEYS, shard_id
            )

    # -- shared namespace / key management -------------------------------
    def client_key(self, host_name: str):
        """A host's MC key from the shared (shard-0) key registry."""
        return self.shards[0].client_key(host_name)

    def register_hidden_service(self, nickname: str, host_name: str, port: int):
        """Register a hidden service in the shared namespace."""
        return self.shards[0].register_hidden_service(nickname, host_name, port)

    # -- aggregated MimicController surface -------------------------------
    @property
    def channels(self) -> dict[int, MimicChannel]:
        """Cluster-wide channel table (merged read view)."""
        if self.n_shards == 1:
            return self.shards[0].channels
        merged: dict[int, MimicChannel] = {}
        for shard in self.shards:
            merged.update(shard.channels)
        return merged

    @property
    def compiled(self) -> dict[int, tuple[list, list, list]]:
        """Cluster-wide compiled-intent table (merged read view)."""
        if self.n_shards == 1:
            return self.shards[0].compiled
        merged: dict[int, tuple[list, list, list]] = {}
        for shard in self.shards:
            merged.update(shard.compiled)
        return merged

    @property
    def _parked(self) -> dict[int, tuple[MimicChannel, int]]:
        if self.n_shards == 1:
            return self.shards[0]._parked
        merged: dict[int, tuple[MimicChannel, int]] = {}
        for shard in self.shards:
            merged.update(shard._parked)
        return merged

    @property
    def flow_ids(self) -> _ClusterFlowIds:
        """Aggregated flow-ID accounting across the shard partitions."""
        return _ClusterFlowIds(self)

    @property
    def strategy(self) -> Union[_ClusterStrategy, object]:
        """The bound strategy (aggregated view when sharded)."""
        if self.n_shards == 1:
            return self.shards[0].strategy
        return _ClusterStrategy(self)

    @property
    def obs(self):
        """The attached observer (shared by every shard)."""
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        """Fan the observer out so every shard's spans land on it."""
        self._obs = value
        for shard in self.shards:
            shard.obs = value

    @property
    def live_channels(self) -> int:
        """Total live channels across shards."""
        return sum(len(s.channels) for s in self.shards)

    @property
    def parked_flows(self) -> int:
        """Total parked flows across shards."""
        return sum(len(s._parked) for s in self.shards)

    @property
    def repairs_in_flight(self) -> int:
        """Total repairs currently running across shards."""
        return sum(len(s._repairing) for s in self.shards)

    @property
    def requests_served(self) -> int:
        """Total MC requests served across shards."""
        return sum(s.requests_served for s in self.shards)

    @property
    def cpu_busy_s(self) -> float:
        """Total simulated controller CPU time across shards."""
        return sum(s.cpu_busy_s for s in self.shards)

    @property
    def repairs_completed(self) -> int:
        """Total completed repairs across shards."""
        return sum(s.repairs_completed for s in self.shards)

    @property
    def repairs_parked(self) -> int:
        """Total repair-to-park transitions across shards."""
        return sum(s.repairs_parked for s in self.shards)

    @property
    def resyncs_completed(self) -> int:
        """Total completed resyncs across shards."""
        return sum(s.resyncs_completed for s in self.shards)

    def verify(self):
        """Statically verify the installed data plane (cluster-wide)."""
        from ..analysis import verify_network

        return verify_network(self.net, mic=self)

    def stats(self) -> dict:
        """Operational snapshot of the cluster."""
        footprint = self.rule_footprint()
        return {
            "anonymity_strategy": self.strategy.name,
            "rotations_completed": self.strategy.rotations_completed,
            "rotation_installs": self.strategy.rotation_installs,
            "live_channels": self.live_channels,
            "live_flows": self.flow_ids.live_count,
            "registry_keys": self.shards[0].registry.total_keys(),
            "requests_served": self.requests_served,
            "mc_cpu_busy_s": self.cpu_busy_s,
            "rules_total": sum(footprint.values()),
            "rules_max_per_switch": max(footprint.values(), default=0),
            "switches_touched": len(footprint),
            "shards": self.n_shards,
            "shards_alive": len(self._alive_ids),
            "failovers": self.failovers,
            "channels_adopted": self.channels_adopted,
            "remote_installs": self.remote_installs,
        }

    def __getattr__(self, name: str):
        # Configuration and shared-namespace reads (labels, registry,
        # mn_spaces, mn_bits, costs, …) resolve against shard 0, whose
        # state is the cluster-wide one.  Only fires for names with no
        # explicit definition above.
        if name.startswith("__"):
            raise AttributeError(name)
        shards = self.__dict__.get("shards")
        if not shards:
            raise AttributeError(name)
        return getattr(shards[0], name)
