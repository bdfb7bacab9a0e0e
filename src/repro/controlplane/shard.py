"""One Mimic Controller shard.

A shard *is* a :class:`~repro.core.controller.MimicController` — same
planning, repair, park and resync machinery — scoped to the channels it
owns and wired into a :class:`~repro.controlplane.cluster.MimicControllerCluster`:

* **Shard 0** attaches through the unchanged inherited path, building the
  MAGA namespace (label space, per-MN hashes, restrictions, registry) on
  the canonical ``mic-controller`` RNG stream.  This is what makes a
  1-shard cluster byte-identical to the plain controller.
* **Shards 1..N-1** attach as *secondaries*: they adopt the primary's
  shared namespace objects by reference and draw their own planning
  randomness from a per-shard stream (``mic-controller/shard{i}``), so
  adding shards never perturbs shard 0's draws.
* Every shard's flow IDs come from its own residue class of the shared
  value space (:class:`~repro.controlplane.ownership.PartitionedFlowIdAllocator`),
  and every bundle the shard sends is routed through the cluster to the
  target switch's owning shard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.channel import MFlowPlan
from ..core.controller import MimicController
from ..sdn.controller import Controller, ControllerApp
from .ownership import PartitionedFlowIdAllocator

if TYPE_CHECKING:
    from .cluster import MimicControllerCluster

__all__ = ["MimicShard"]


class MimicShard(MimicController):
    """A cluster member; never registered on the controller directly."""

    def __init__(self, shard_id: int, cluster: "MimicControllerCluster", **mic_kwargs):
        super().__init__(**mic_kwargs)
        self.shard_id = shard_id
        self.cluster = cluster
        self.alive = True
        #: flow-mods this shard issued on behalf of the cluster (fan-out
        #: target side; a remote install counts on the *owning* shard)
        self.installs_issued = 0

    # -- attach ----------------------------------------------------------
    def attach_secondary(
        self, controller: Controller, primary: "MimicShard"
    ) -> None:
        """Join the cluster next to an already-attached primary.

        Mirrors :meth:`MimicController.attach` but adopts the primary's
        namespace state instead of rebuilding it: the label space, per-MN
        hash spaces, restrictions, collision registry, hidden-service map
        and client-key/port books are *cluster-wide* objects shared by
        reference.  Only the planning RNG and the flow-ID partition are
        shard-local.
        """
        ControllerApp.attach(self, controller)
        self.net = controller.network
        self.sim = controller.sim
        self.rng = self.sim.rng(f"mic-controller/shard{self.shard_id}")
        self.labels = primary.labels
        self.mn_spaces = primary.mn_spaces
        self.restrictions = primary.restrictions
        self.registry = primary.registry
        self.hidden = primary.hidden
        self._client_keys = primary._client_keys
        self._used_sports = primary._used_sports
        self._ip_to_mac = primary._ip_to_mac
        self._ip_to_host = primary._ip_to_host
        flow_id_values = next(iter(self.mn_spaces.values())).flow_id_values
        self.flow_ids = PartitionedFlowIdAllocator(
            flow_id_values, self.shard_id, self.cluster.n_shards
        )
        self.strategy.bind(self)
        if self.idle_timeout_s is not None:
            self.sim.process(
                self._expiry_loop(), name=f"mic.expiry.s{self.shard_id}"
            )

    # -- cluster seams ----------------------------------------------------
    def _release_flow(self, channel_id: int, plan: MFlowPlan) -> None:
        # A flow adopted across a failover may carry an ID from another
        # shard's residue class; route the release to its home partition.
        self.registry.release_owner(f"ch{channel_id}/c{plan.cookie}")
        self._used_sports[plan.walk[0]].discard(plan.entry.sport)
        alloc = self.cluster.allocator_for(plan.flow_id)
        if alloc.is_live(plan.flow_id):
            alloc.release(plan.flow_id)

    def _send(self, sw_name: str, entries: list, groups: list):
        return self.cluster.dispatch(self, sw_name, entries, groups)

    def _request_cpu(self, cpu: float):
        yield from self.cluster.request_cpu(self, cpu)
