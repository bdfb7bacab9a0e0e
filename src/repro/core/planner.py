"""The m-flow planner: walks, Mimic Nodes and MAGA m-addresses, planned
from the topology before anything is installed (Sec IV-B2, IV-B3).

A :class:`Planner` holds everything a plan reads or books (see
docs/architecture.md, *Planning*).  Randomness comes in as a
``random.Random`` per call and a ``streams(name)`` callable, ids as an
``ids(name)`` callable, so planning needs no simulator: the Mimic
Controller builds one planner per deployment on its own streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..net.addresses import IPv4Addr, MacAddr
from .channel import MFlowPlan
from .collision import CollisionRegistry, FlowIdAllocator, MnAddressSpace
from .labels import LabelSpace
from .maga import ReversibleHash
from .restrictions import AddressRestrictions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..anonymity.base import Strategy
    from ..sdn.discovery import TopologyView

__all__ = ["DECOY_DROP_PRIORITY", "EstablishError", "FlowIntent", "MAddressDraw",
           "MIC_PRIORITY", "Planner"]

#: m-flow rules shadow common L3 rules (priority 10)
MIC_PRIORITY = 50
DECOY_DROP_PRIORITY = 60
#: a rewritten header's MAC when its IP belongs to no host
_NO_HOST_MAC = MacAddr(0xFFFFFF_0000FE)


class EstablishError(RuntimeError):
    """The MC could not set up a channel (bad responder, exhausted IDs…)."""


@dataclass(frozen=True)
class MAddressDraw:
    """Pinning spec for one end of a segment draw."""

    src_ip: Optional[IPv4Addr] = None
    dst_ip: Optional[IPv4Addr] = None
    sport: Optional[int] = None
    dport: Optional[int] = None


@dataclass(frozen=True)
class FlowIntent:
    """What one m-flow is asked to connect, under which identity."""

    initiator: str  # host name
    responder: str  # host name
    responder_port: int
    n_mns: int
    cookie: int
    owner: str  # registry owner and decoy-stream name, ``ch<id>/c<cookie>``
    proto: str = "tcp"
    shard: int = 0  # the flow-ID class the id is drawn from


class Planner:
    """One deployment's planning namespace: the routing view and topology,
    the port map, the IP maps, the strategy (bound here), the label and
    per-MN hash spaces, the restrictions, the collision registry, the
    flow-ID allocator, the booked source ports and the decoy streams."""

    def __init__(
        self,
        view: "TopologyView",
        port_map: dict[tuple[str, str], int],
        strategy: "Strategy",
        rng: random.Random,
        streams: Callable[[str], random.Random],
        ids: Callable[[str], Iterator[int]],
        mn_strategy: str = "random",
        mn_bits: int = 16,
        flow_bits: int = 16,
        mn_shift: int = 2,
        flow_shift: int = 6,
        shared_flow_hash: bool = False,
        n_shards: int = 1,
    ):
        self.view = view
        topo = self.topo = view.topo
        self.port_map, self.streams, self.ids = port_map, streams, ids
        self.mn_strategy = mn_strategy
        # The namespace is drawn on ``rng`` in this order: the label space,
        # the shared flow hash (ablation only), then every switch's label
        # set and hash -- any switch is a potential MN (Sec III-A).
        self.labels = LabelSpace(rng, mn_bits=mn_bits, flow_bits=flow_bits, mn_shift=mn_shift)
        shared = ReversibleHash.random(
            rng, widths=(32, 32, self.labels.mn_bits, self.labels.flow_bits), shift=flow_shift,
        ) if shared_flow_hash else None
        self.mn_spaces: dict[str, MnAddressSpace] = {}
        for sw in topo.switches():
            self.labels.register_mn(sw)
            self.mn_spaces[sw] = MnAddressSpace(sw, rng, self.labels, flow_shift=flow_shift,
                                                shared_hash=shared)
        self.restrictions = AddressRestrictions(view)
        flow_id_values = next(iter(self.mn_spaces.values())).flow_id_values
        self.flow_ids = FlowIdAllocator(flow_id_values, n_shards)
        self.registry = CollisionRegistry()
        #: initiator host -> source ports its live flows hold
        self.used_sports: dict[str, set[int]] = {}
        #: owner -> its flow's decoy-placement stream, ``mic-decoys/<owner>``
        self.decoy_streams: dict[str, random.Random] = {}
        self.ip_to_host = {topo.host_ip(h): h for h in topo.hosts()}
        self.ip_to_mac = {topo.host_ip(h): topo.host_mac(h) for h in topo.hosts()}
        self.strategy = strategy.bind(self)

    def mac_for(self, addr: IPv4Addr) -> MacAddr:
        """The MAC a rewritten header carries for ``addr``."""
        return self.ip_to_mac.get(addr, _NO_HOST_MAC)

    def decoy_stream(self, owner: str) -> random.Random:
        """The flow's decoy-placement stream: placement depends only on
        (seed, owner), and a repair of the flow continues the stream."""
        stream = self.decoy_streams.get(owner)
        if stream is None:
            stream = self.decoy_streams[owner] = self.streams(f"mic-decoys/{owner}")
        return stream

    # -- planning -----------------------------------------------------------
    def plan(self, intent: FlowIntent, rng: random.Random,
             pins: Optional[MFlowPlan] = None) -> MFlowPlan:
        """Plan one m-flow, drawing on ``rng`` (the planning shard's stream).

        ``pins`` is the live plan a repair re-plans: it keeps its id and its
        host-visible addresses (entry, delivery, aliases) while the interior
        is re-drawn over the current view.  A plan that fails mid-draw gives
        back exactly what this call acquired (a pinned id and source port
        stay booked: they belong to the live flow)."""
        initiator, responder = intent.initiator, intent.responder
        kind = self.topo.kind
        walk = self.view.paths_with_min_switches(initiator, responder, intent.n_mns, rng)
        switch_positions = [i for i in range(1, len(walk) - 1) if kind(walk[i]) == "switch"]
        mn_positions = self._choose_mns(rng, switch_positions, intent.n_mns)
        new_id = new_sport = None
        try:
            if pins is None:
                flow_id = new_id = self.flow_ids.allocate(intent.shard)
                sport = new_sport = self._assign_sport(rng, initiator)
            else:
                flow_id, sport = pins.flow_id, pins.entry.sport
            init_ip = self.topo.host_ip(initiator)
            resp_ip = self.topo.host_ip(responder)
            endpoints = (initiator, responder)
            first = MAddressDraw(src_ip=init_ip, sport=sport)
            last = MAddressDraw(dst_ip=resp_ip, dport=intent.responder_port)
            if pins is not None:
                first = replace(first, dst_ip=pins.entry.dst_ip, dport=pins.entry.dport)
                last = replace(last, src_ip=pins.delivery.src_ip, sport=pins.delivery.sport)
            strategy, owner = self.strategy, intent.owner
            fwd = strategy.draw_addresses(walk, mn_positions, flow_id, first, last,
                                          owner, endpoints, rng)
            delivery, entry = fwd[-1], fwd[0]
            rev = strategy.draw_addresses(
                walk[::-1], sorted(len(walk) - 1 - p for p in mn_positions), flow_id,
                MAddressDraw(src_ip=resp_ip, sport=delivery.dport,
                             dst_ip=delivery.src_ip, dport=delivery.sport),
                MAddressDraw(src_ip=entry.dst_ip, sport=entry.dport,
                             dst_ip=init_ip, dport=entry.sport),
                owner, endpoints, rng,
            )
            plan = MFlowPlan(
                flow_id=flow_id, walk=walk, mn_positions=mn_positions,
                fwd_addrs=fwd, rev_addrs=rev, cookie=intent.cookie,
                proto=intent.proto, owner=owner,
            )
            strategy.finish_plan(plan, endpoints, rng,
                                 alias_pins=() if pins is None else pins.aliases)
            return plan
        except Exception:
            self.registry.release_owner(intent.owner)
            if new_id is not None:
                self.flow_ids.release(new_id)
            if new_sport is not None:
                self.used_sports[initiator].discard(new_sport)
            raise

    def release(self, plan: MFlowPlan) -> None:
        """Give back everything ``plan`` booked: its registry claims, its
        decoy stream, its source port and its flow id."""
        self.registry.release_owner(plan.owner)
        self.decoy_streams.pop(plan.owner, None)
        self.used_sports[plan.walk[0]].discard(plan.entry.sport)
        if self.flow_ids.is_live(plan.flow_id):
            self.flow_ids.release(plan.flow_id)

    def _choose_mns(self, rng: random.Random, switch_positions: list[int],
                    n_mns: int) -> list[int]:
        if len(switch_positions) < n_mns:
            raise EstablishError(f"path has {len(switch_positions)} switches, need {n_mns} MNs")
        if self.mn_strategy == "spread":
            # Evenly spaced along the path: a step >= 1 never repeats a slot.
            step = len(switch_positions) / n_mns
            return [switch_positions[int(i * step)] for i in range(n_mns)]
        return sorted(rng.sample(switch_positions, n_mns))

    def _assign_sport(self, rng: random.Random, initiator: str) -> int:
        used = self.used_sports.setdefault(initiator, set())
        for _ in range(4096):
            candidate = rng.randint(20000, 60000)
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise EstablishError(f"no free source ports for {initiator}")
