"""The Mimic Controller (MC) — MIC's control application (Sec IV-B).

The MC lives in the SDN controller.  It:

* answers encrypted channel requests from initiators (carried as ordinary
  packets addressed to the MC's service address, punted by the first switch),
* calculates an independent walk, Mimic Node set and per-segment m-addresses
  for every requested m-flow (routing calculation, Sec IV-B2),
* enforces collision freedom through MAGA: per-MN independent hash
  functions, disjoint per-MN label sets, unique live flow IDs, and a
  defense-in-depth match-key registry (Sec IV-B3),
* compiles and installs the rewrite/forward/drop rules, including partial
  multicast decoy groups (Sec IV-C),
* manages channel lifecycle: grants, activity notifications, reuse, idle
  expiry and teardown (Sec IV-B1),
* keeps the hidden-service map for receiver anonymity (Sec IV-D).

The paper answers the single-MC ceiling with several MCs (Sec VI-C).  Here
that is ``MimicController(shards=N)``: one namespace (labels, MN hashes,
registry, hidden services, one flow-ID allocator, one anonymity strategy)
and N :class:`Shard` books.  A channel lives on the shard owning its
initiator's edge switch under the rendezvous map of
:mod:`repro.core.ownership`; every bundle is routed to the shard
owning its target switch; a crashed shard's channels are adopted by the
survivors (:meth:`MimicController.crash_shard`).  ``shards=1`` (the
default) is the unsharded controller.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..crypto import DEFAULT_COSTS, CryptoCostModel, Key, seal, unseal
from ..net.addresses import IPv4Addr, MacAddr, ip
from ..net.graph import NoPathError
from ..net.packet import Packet
from ..net.switch import Switch
from ..obs.spans import begin as begin_span
from ..sdn.controller import Controller, ControllerApp
from ..sim.resources import Resource
from .channel import (
    ChannelGrant,
    FlowGrant,
    MFlowPlan,
    MimicChannel,
)
from .collision import (
    CollisionRegistry,
    FlowIdAllocator,
    MAddress,
    MnAddressSpace,
)
from .hidden import HiddenServiceMap
from .labels import LabelSpace
from .ownership import OwnershipMap
from .restrictions import AddressRestrictions

if TYPE_CHECKING:  # runtime import would cycle; see __init__
    from ..anonymity.base import Strategy

__all__ = [
    "MimicController",
    "Shard",
    "McRequest",
    "McReply",
    "MC_IP",
    "MC_PORT",
    "MIC_PRIORITY",
]

#: the MC's service address — not a host; switches punt packets sent here
MC_IP = ip("10.255.255.254")
MC_PORT = 6653

#: m-flow rules shadow common L3 rules (priority 10)
MIC_PRIORITY = 50
DECOY_DROP_PRIORITY = 60

REQUEST_WIRE_BYTES = 128
REPLY_WIRE_BYTES = 96


@dataclass(frozen=True)
class McRequest:
    """Initiator → MC message (sent sealed under the shared key)."""

    kind: str  # "establish" | "shutdown" | "notify"
    reply_port: int = 0
    responder: Union[str, IPv4Addr, None] = None  # nickname or address
    service_port: int = 0
    n_flows: int = 1
    n_mns: int = 3
    decoys: int = 0
    channel_id: int = 0  # for shutdown / notify
    proto: str = "tcp"  # transport of the m-flows ("tcp" | "udp")


@dataclass(frozen=True)
class McReply:
    """MC → initiator acknowledgement (sealed under the shared key)."""

    ok: bool
    grant: Optional[ChannelGrant] = None
    error: str = ""


class EstablishError(RuntimeError):
    """The MC could not set up a channel (bad responder, exhausted IDs…)."""


@dataclass(eq=False)
class Shard:
    """One controller shard's books: the channels it holds, their compiled
    intents, its repair and park bookkeeping, its planning RNG stream, its
    CPU queue (``cpu_model="serialized"`` only) and its counters.

    Every generator the controller runs for a shard holds that shard and
    re-checks ``alive`` after resuming, so a crashed shard's in-flight work
    stops without side effects and touches only its own books.
    """

    shard_id: int
    rng: random.Random
    cpu: Optional[Resource] = None
    alive: bool = True
    channels: dict[int, MimicChannel] = field(default_factory=dict)
    #: cookie -> (rules, groups, drops) as installed — the channel intent a
    #: rebooted switch is re-synced from
    compiled: dict[int, tuple[list, list, list]] = field(default_factory=dict)
    #: cookie -> kind (``"repair"`` / ``"rotate"``) of the repair process
    #: in flight (dedup: a second failure on the same flow must not spawn a
    #: second repairer; failover re-drives the same kind)
    repairing: dict[int, str] = field(default_factory=dict)
    #: cookie -> (channel, flow index) for flows parked with no surviving
    #: path; retried on heal events and by backoff loops
    parked: dict[int, tuple[MimicChannel, int]] = field(default_factory=dict)
    park_loops: set[int] = field(default_factory=set)
    requests_served: int = 0
    #: flow-mods routed to this shard as the target switch's owner
    installs_issued: int = 0
    cpu_busy_s: float = 0.0  # MC-side compute accounting


@dataclass(eq=False)
class Attempt:
    """One install of a compiled intent ``(rules, groups, drops)`` under a
    cookie — all the MC does to the data plane.  Establish, repair, resync
    and teardown make the switches agree with an intent or leave no trace:
    :meth:`push`, :meth:`settle`, then :meth:`commit` or :meth:`retract`,
    with the liveness checks (:meth:`orphaned`) at that one commit point."""

    mic: MimicController
    shard: Shard
    cookie: int
    compiled: tuple
    #: install events of the bundles :meth:`push` sent
    events: list = field(default_factory=list)

    def push(self, only: Optional[str] = None) -> Attempt:
        """Send the intent, one bundle per switch (``only``: that switch
        alone, for a resync), each through ``mic._send``.  A bundle carries
        the switch's groups with the rules that reference them (``add_decoys``
        puts a group on its rule's MN), so rule-before-group is impossible."""
        rules, groups, drops = self.compiled
        bundles: dict[str, tuple[list, list]] = {}
        for sw_name, entry in rules + drops:
            bundles.setdefault(sw_name, ([], []))[0].append(entry)
        for sw_name, group in groups:
            bundles.setdefault(sw_name, ([], []))[1].append(group)
        self.events = [
            self.mic._send(self.shard, sw_name, *bundle)
            for sw_name, bundle in bundles.items()
            if only is None or sw_name == only
        ]
        return self

    @staticmethod
    def settle(attempts: Sequence[Attempt]):
        """Wait until *every* send of ``attempts`` has landed or failed;
        returns the first failure, or None.  Undoing while siblings are
        still queued or being re-driven would let a late bundle leak past
        the removal."""
        events = [ev for attempt in attempts for ev in attempt.events]
        if not events:
            return None
        try:
            yield events[0].sim.all_of(events)
            return None
        except Exception as exc:
            failure = exc
        for ev in events:
            if not ev.processed:
                try:
                    yield ev
                except Exception:
                    pass
        return failure

    def commit(self) -> None:
        """Book the intent as the cookie's installed state."""
        self.shard.compiled[self.cookie] = self.compiled

    def retract(self) -> list:
        """Remove the cookie from every switch the intent names (decoy-drop
        rules live on off-walk branch switches too), whatever :meth:`push`
        sent; returns the removal events — ``all_of`` them for a barrier."""
        scope = sorted({sw_name for part in self.compiled for sw_name, _obj in part})
        return [self.mic.controller.remove_by_cookie(sw, self.cookie) for sw in scope]

    def orphaned(self, channel: MimicChannel) -> Optional[str]:
        """Why this install for ``channel`` must not commit, or None."""
        if not self.shard.alive:
            return "abandoned"  # shard crashed; the adopting shard re-drives
        if channel.channel_id not in self.shard.channels:
            return "closed"  # torn down while the sends were in flight
        return None


class MimicController(ControllerApp):
    """MIC's control application; register it on a :class:`Controller`."""

    name = "mic"

    def __init__(
        self,
        mn_strategy: str = "random",
        mn_bits: int = 16,
        flow_bits: int = 16,
        mn_shift: int = 2,
        flow_shift: int = 6,
        idle_timeout_s: Optional[float] = None,
        shared_flow_hash: bool = False,
        costs: CryptoCostModel = DEFAULT_COSTS,
        verify: bool = False,
        park_retry_s: float = 0.25,
        strategy: Union[str, "Strategy"] = "mic",
        shards: int = 1,
        cpu_model: str = "parallel",
        flowmod_cpu_s: float = 100e-6,
    ):
        if mn_strategy not in ("random", "spread"):
            raise ValueError(f"unknown MN strategy {mn_strategy!r}")
        if cpu_model not in ("parallel", "serialized"):
            raise ValueError(f"unknown cpu model {cpu_model!r}")
        if not 0.0 <= flowmod_cpu_s < math.inf:
            raise ValueError(f"flowmod_cpu_s {flowmod_cpu_s} must be finite and >= 0")
        # nan included: a zero period livelocks the expiry / park loops
        if idle_timeout_s is not None and not idle_timeout_s > 0:
            raise ValueError(f"idle_timeout_s {idle_timeout_s} must be > 0 or None")
        if not park_retry_s > 0:
            raise ValueError(f"park_retry_s {park_retry_s} must be > 0")
        self.mn_strategy = mn_strategy
        # Imported here, not at module top: anonymity.base needs the core
        # channel/collision types at load time, so a top-level import would
        # cycle whenever repro.anonymity is imported before repro.core.
        from ..anonymity.base import get_strategy

        # Resolve eagerly so a bad name fails at construction, not attach.
        self.strategy = get_strategy(strategy)
        self.mn_bits = mn_bits
        self.flow_bits = flow_bits
        self.mn_shift = mn_shift
        self.flow_shift = flow_shift
        self.idle_timeout_s = idle_timeout_s
        #: ablation switch: one global F instead of per-MN functions
        self.shared_flow_hash = shared_flow_hash
        self.costs = costs
        #: re-verify the whole data plane after every install batch
        #: (static proof of Sec IV-B3's collision freedom; see
        #: docs/verification.md)
        self.verify_installs = verify
        self.park_retry_s = park_retry_s
        self.ownership = OwnershipMap(shards)
        self.n_shards = shards
        #: "parallel" (default) issues installs immediately; "serialized"
        #: charges the owning shard's single CPU ``flowmod_cpu_s`` per mod,
        #: modelling the control-plane serialization the paper's Sec VI-C
        #: ceiling comes from
        self.cpu_model = cpu_model
        self.flowmod_cpu_s = flowmod_cpu_s
        self._alive_ids: tuple[int, ...] = tuple(range(shards))
        #: optional attached repro.obs.Observer (control-plane spans)
        self.obs = None
        self.repairs_completed = 0
        self.repairs_parked = 0
        self.resyncs_completed = 0
        self.failovers = 0
        self.channels_adopted = 0
        self.flows_reparked = 0
        self.repairs_rescheduled = 0
        #: installs whose target switch was owned by a different shard than
        #: the one planning the flow (cross-shard fan-out volume)
        self.remote_installs = 0

    # ------------------------------------------------------------------
    def attach(self, controller: Controller) -> None:
        """Wire the app to a controller: build label spaces, MN hashes,
        restrictions and the shard books."""
        super().attach(controller)
        self.net = controller.network
        self.sim = controller.sim
        self.rng = self.sim.rng("mic-controller")
        self.labels = LabelSpace(
            self.rng, mn_bits=self.mn_bits, flow_bits=self.flow_bits,
            mn_shift=self.mn_shift,
        )
        # Any switch is a potential MN (Sec III-A): register them all.
        from .maga import ReversibleHash

        shared = None
        if self.shared_flow_hash:
            shared = ReversibleHash.random(
                self.rng,
                widths=(32, 32, self.labels.mn_bits, self.labels.flow_bits),
                shift=self.flow_shift,
            )
        self.mn_spaces: dict[str, MnAddressSpace] = {}
        for sw in self.net.topo.switches():
            self.labels.register_mn(sw)
            self.mn_spaces[sw] = MnAddressSpace(
                sw, self.rng, self.labels, flow_shift=self.flow_shift,
                shared_hash=shared,
            )
        self.restrictions = AddressRestrictions(controller.view)
        flow_id_values = next(iter(self.mn_spaces.values())).flow_id_values
        self.flow_ids = FlowIdAllocator(flow_id_values, self.n_shards)
        self.registry = CollisionRegistry()
        self.hidden = HiddenServiceMap()
        self.strategy.bind(self)
        self._client_keys: dict[str, Key] = {}
        self._used_sports: dict[str, set[int]] = {}
        self._ip_to_mac = {
            self.net.topo.host_ip(h): self.net.topo.host_mac(h)
            for h in self.net.topo.hosts()
        }
        self._ip_to_host = {
            self.net.topo.host_ip(h): h for h in self.net.topo.hosts()
        }
        # Shard 0 plans on the stream that built the namespace; the others
        # get streams of their own, so adding shards never moves its draws.
        self.shards = [
            Shard(
                i,
                self.rng if i == 0 else self.sim.rng(f"mic-controller/shard{i}"),
                cpu=Resource(self.sim) if self.cpu_model == "serialized" else None,
            )
            for i in range(self.n_shards)
        ]
        if self.idle_timeout_s is not None:
            self.sim.process(self._expiry_loop(), name="mic.expiry")

    # -- key management (pre-exchanged via RSA/DH, Sec VI) ------------------
    def client_key(self, host_name: str) -> Key:
        """The per-client symmetric key shared with the MC."""
        if host_name not in self._client_keys:
            self._client_keys[host_name] = Key(
                next(self.sim.ids("crypto.key")), label=f"mc-{host_name}"
            )
        return self._client_keys[host_name]

    # -- hidden services ----------------------------------------------------
    def register_hidden_service(self, nickname: str, host_name: str, port: int):
        """Register a nickname → (host, port) hidden service."""
        if not self.net.topo.is_host(host_name):
            raise ValueError(f"unknown host {host_name!r}")
        return self.hidden.register(nickname, host_name, port)

    # -- ownership and routing -----------------------------------------------
    def alive_shards(self) -> tuple[int, ...]:
        """IDs of the currently alive shards."""
        return self._alive_ids

    def owner_of_switch(self, sw_name: str) -> Shard:
        """The alive shard owning a switch under the rendezvous map."""
        return self.shards[self.ownership.owner(sw_name, self._alive_ids)]

    def shard_of_host(self, host: str) -> Shard:
        """The shard owning a host's channels (its edge switch's owner)."""
        topo = self.net.topo
        edge = next(nb for nb in topo.neighbors(host) if topo.kind(nb) == "switch")
        return self.owner_of_switch(edge)

    def shard_of_channel(self, channel_id: int) -> Optional[Shard]:
        """The shard currently holding a live channel, or None."""
        for shard in self.shards:
            if channel_id in shard.channels:
                return shard
        return None

    def _route(self, sw_name: str, counter: str, n: int) -> Shard:
        """``owner_of_switch`` for ``n`` requests or mods of kind ``counter``
        (the profiler's ``controlplane.route`` frame brackets this call)."""
        return self.owner_of_switch(sw_name)

    # ------------------------------------------------------------------
    # Control-message path (packets addressed to MC_IP)
    # ------------------------------------------------------------------
    def on_packet_in(self, switch: Switch, packet: Packet, in_port: int) -> bool:
        """Claim packets addressed to the MC's service address; each is
        served by the shard owning the punting switch."""
        if packet.ip_dst != MC_IP or packet.dport != MC_PORT:
            return False
        shard = self._route(switch.name, "requests.routed", 1)
        self.sim.process(
            self._serve_request(shard, switch, packet, in_port), name="mic.serve"
        )
        return True

    def _serve_request(self, shard: Shard, switch: Switch, packet: Packet,
                       in_port: int):
        shard.requests_served += 1
        span = begin_span(self.obs, "mic.request")
        initiator_host = self._ip_to_host.get(packet.ip_src)
        if initiator_host is None:
            return
        key = self.client_key(initiator_host)
        try:
            request = unseal(key, packet.payload)
        except Exception:
            return  # not decryptable under the claimed sender's key
        # Decrypt cost + request-processing compute on the controller.
        cpu = self.costs.aes(REQUEST_WIRE_BYTES) + self.net.params.controller_request_cpu_s
        shard.cpu_busy_s += cpu
        yield from self._request_cpu(shard, cpu)
        if not shard.alive:
            return

        if request.kind == "establish":
            try:
                grant = yield from self.establish(
                    initiator_host,
                    request.responder,
                    service_port=request.service_port,
                    n_flows=request.n_flows,
                    n_mns=request.n_mns,
                    decoys=request.decoys,
                    proto=request.proto,
                )
                reply = McReply(ok=True, grant=grant)
            except (EstablishError, ValueError, KeyError, IndexError,
                    NoPathError) as exc:
                # Establishment on a degraded fabric must answer, not crash:
                # no-path and exhausted-draw conditions become clean refusals.
                reply = McReply(ok=False, error=str(exc))
        # A request naming a channel acts on the shard holding it: after a
        # failover and a rejoin that need not be the one serving it.
        elif request.kind == "shutdown":
            self.teardown(request.channel_id)
            reply = McReply(ok=True)
        elif request.kind == "notify":
            ch = self.channel_of(request.channel_id)
            if ch is not None:
                ch.touch(self.sim.now)
            reply = McReply(ok=True)
        else:
            reply = McReply(ok=False, error=f"unknown request {request.kind!r}")

        if not shard.alive:
            return  # crashed while serving: the initiator's retry re-asks
        out = Packet(
            eth_src=MacAddr(0xFFFFFF_000001),
            eth_dst=self.net.topo.host_mac(initiator_host),
            ip_src=MC_IP,
            ip_dst=packet.ip_src,
            proto="udp",
            sport=MC_PORT,
            dport=request.reply_port,
            payload=seal(key, reply),
            payload_size=REPLY_WIRE_BYTES,
            uid=next(self.sim.ids("packet.uid")),
            content_tag=next(self.sim.ids("packet.tag")),
        )
        self.controller.packet_out(switch.name, out, in_port)
        span.finish(kind=request.kind)

    # ------------------------------------------------------------------
    # Channel establishment (Sec IV-A1, IV-B2)
    # ------------------------------------------------------------------
    def establish(
        self,
        initiator: str,
        responder: Union[str, IPv4Addr],
        service_port: int = 0,
        n_flows: int = 1,
        n_mns: int = 3,
        decoys: int = 0,
        proto: str = "tcp",
    ):
        """Process generator: plan, install, and grant a mimic channel on
        the shard owning the initiator's edge switch."""
        for name, value, low in ("n_flows", n_flows, 1), ("n_mns", n_mns, 1), ("decoys", decoys, 0):
            if not isinstance(value, numbers.Integral) or value < low:
                raise EstablishError(f"need an integer {name} >= {low}, not {value!r}")
        if proto not in ("tcp", "udp"):
            raise EstablishError(f"unsupported transport {proto!r}")
        responder_host, responder_port = self._resolve_responder(
            responder, service_port
        )
        if responder_host == initiator:
            raise EstablishError("initiator and responder are the same host")

        shard = self.shard_of_host(initiator)
        channel_id = next(self.sim.ids("mic.channel"))
        establish_span = begin_span(
            self.obs, "mic.establish",
            channel=channel_id, initiator=initiator, responder=responder_host,
            n_flows=n_flows, n_mns=n_mns,
        )
        plans: list[MFlowPlan] = []
        try:
            for _ in range(n_flows):
                # Each m-flow gets its own cookie and registry owner, so a
                # single flow can be torn down or repaired independently.
                # cookies start at 'MI', for readability in dumps
                cookie = next(self.sim.ids("mic.cookie", 0x4D49_0000))
                owner = f"ch{channel_id}/c{cookie}"
                plan_span = begin_span(self.obs, "mic.plan_flow", channel=channel_id)
                plan = self._plan_flow(
                    shard, initiator, responder_host, responder_port, n_mns,
                    cookie, owner, proto=proto,
                )
                plan_span.finish(flow_id=plan.flow_id)
                plans.append(plan)
        except Exception:
            for plan in plans:
                self._release_flow(channel_id, plan)
            raise

        # One attempt per flow, each pushing one bundle per switch in
        # parallel; all settle together, then all commit or all retract.
        attempts = [
            Attempt(self, shard, plan.cookie, self.strategy.compile_flow(
                plan, f"ch{channel_id}/c{plan.cookie}", decoys, shard.rng
            )).push()
            for plan in plans
        ]
        install_span = begin_span(
            self.obs, "mic.install_batch", channel=channel_id,
            installs=sum(len(part) for a in attempts for part in a.compiled),
        )
        failure = yield from Attempt.settle(attempts)
        if failure is None:
            install_span.finish()
        if failure is not None or not shard.alive:
            # A switch refused a bundle (e.g. table full), or the shard
            # crashed while the sends were in flight: every send has settled,
            # so removing now leaves no trace — no channel would own it.
            for attempt in attempts:
                attempt.retract()
            for plan in plans:
                self._release_flow(channel_id, plan)
            raise EstablishError(
                "controller shard crashed during install" if failure is None
                else f"rule installation failed: {failure}"
            ) from failure

        channel = MimicChannel(
            channel_id=channel_id, initiator=initiator, responder=responder_host,
            flows=plans, created_at=self.sim.now, last_activity=self.sim.now, decoys=decoys,
        )
        shard.channels[channel_id] = channel
        for attempt in attempts:
            attempt.commit()
        if self.verify_installs:
            self.verify().raise_if_failed()
        self.strategy.on_established(channel)
        establish_span.finish()
        return ChannelGrant(
            channel_id=channel_id,
            flows=tuple(self.strategy.flow_grant(p) for p in plans),
        )

    def _resolve_responder(
        self, responder: Union[str, IPv4Addr], service_port: int
    ) -> tuple[str, int]:
        if isinstance(responder, IPv4Addr):
            host = self._ip_to_host.get(responder)
            if host is None:
                raise EstablishError(f"no host with address {responder}")
            if not service_port:
                raise EstablishError("service_port required with a direct address")
            return host, service_port
        if isinstance(responder, str):
            if self.net.topo.is_host(responder):
                if not service_port:
                    raise EstablishError("service_port required with a host name")
                return responder, service_port
            svc = self.hidden.resolve(responder)
            if svc is None:
                raise EstablishError(f"unknown service {responder!r}")
            return svc.host_name, svc.port
        raise EstablishError(f"bad responder spec {responder!r}")

    # -- planning -------------------------------------------------------
    def _plan_flow(
        self,
        shard: Shard,
        initiator: str,
        responder: str,
        responder_port: int,
        n_mns: int,
        cookie: int,
        owner: str,
        flow_id: Optional[int] = None,
        entry_pin: Optional[MAddress] = None,
        delivery_pin: Optional[MAddress] = None,
        alias_pins: tuple = (),
        proto: str = "tcp",
    ) -> MFlowPlan:
        """Plan one m-flow on ``shard``'s RNG stream and flow-ID class.

        ``flow_id``/``entry_pin``/``delivery_pin`` support repair: the flow
        keeps its identity and its host-visible addresses while the interior
        of the walk is re-drawn over the current routing view.
        """
        rng = shard.rng
        view = self.controller.view
        walk = view.paths_with_min_switches(initiator, responder, n_mns, rng)
        switch_positions = [
            i for i in range(1, len(walk) - 1)
            if self.net.topo.kind(walk[i]) == "switch"
        ]
        mn_positions = self._choose_mns(rng, switch_positions, n_mns)
        new_id = new_sport = None
        try:
            if flow_id is None:
                flow_id = new_id = self.flow_ids.allocate(shard.shard_id)
            if entry_pin is not None:
                sport = entry_pin.sport
            else:
                sport = new_sport = self._assign_sport(rng, initiator)

            init_ip = self.net.topo.host_ip(initiator)
            resp_ip = self.net.topo.host_ip(responder)

            endpoints = (initiator, responder)
            first = MAddressDraw(src_ip=init_ip, sport=sport)
            if entry_pin is not None:
                first = replace(first, dst_ip=entry_pin.dst_ip, dport=entry_pin.dport)
            last = MAddressDraw(dst_ip=resp_ip, dport=responder_port)
            if delivery_pin is not None:
                last = replace(last, src_ip=delivery_pin.src_ip, sport=delivery_pin.sport)
            fwd = self.strategy.draw_addresses(
                walk, mn_positions, flow_id,
                first=first,
                last=last,
                owner=owner,
                endpoints=endpoints,
                rng=rng,
            )
            rwalk = list(reversed(walk))
            rev_positions = sorted(len(walk) - 1 - p for p in mn_positions)
            delivery = fwd[-1]
            entry = fwd[0]
            rev = self.strategy.draw_addresses(
                rwalk, rev_positions, flow_id,
                first=MAddressDraw(
                    src_ip=resp_ip, sport=delivery.dport,
                    dst_ip=delivery.src_ip, dport=delivery.sport,
                ),
                last=MAddressDraw(
                    src_ip=entry.dst_ip, sport=entry.dport,
                    dst_ip=init_ip, dport=entry.sport,
                ),
                owner=owner,
                endpoints=endpoints,
                rng=rng,
            )
            plan = MFlowPlan(
                flow_id=flow_id,
                walk=walk,
                mn_positions=mn_positions,
                fwd_addrs=fwd,
                rev_addrs=rev,
                cookie=cookie,
                proto=proto,
            )
            self.strategy.finish_plan(plan, owner, endpoints, rng,
                                      alias_pins=alias_pins)
            return plan
        except Exception:
            # A plan that fails mid-draw gives back exactly what this call
            # acquired; a repair re-plan's pinned flow id and source port
            # belong to the live flow and stay booked.
            self.registry.release_owner(owner)
            if new_id is not None:
                self.flow_ids.release(new_id)
            if new_sport is not None:
                self._used_sports[initiator].discard(new_sport)
            raise

    def _choose_mns(self, rng: random.Random, switch_positions: list[int],
                    n_mns: int) -> list[int]:
        if len(switch_positions) < n_mns:
            raise EstablishError(
                f"path has {len(switch_positions)} switches, need {n_mns} MNs"
            )
        if self.mn_strategy == "spread":
            # Evenly spaced along the path: a step >= 1 never repeats a slot.
            step = len(switch_positions) / n_mns
            return [switch_positions[int(i * step)] for i in range(n_mns)]
        return sorted(rng.sample(switch_positions, n_mns))

    def _assign_sport(self, rng: random.Random, initiator: str) -> int:
        used = self._used_sports.setdefault(initiator, set())
        for _ in range(4096):
            candidate = rng.randint(20000, 60000)
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise EstablishError(f"no free source ports for {initiator}")

    # -- the install path (see Attempt) ----------------------------------
    def _send(self, origin: Shard, sw_name: str, entries: list, groups: list):
        """Send one bundle through the target switch's owning shard; under
        the serialized CPU model that shard's CPU is charged first.

        The charge is a chain of calls, not a process: take the CPU, hold
        it ``cost`` seconds, release it and send, mirror the outcome into
        ``done``.  Each link goes on the heap where the process's resume
        did, so every event keeps its instant and its order
        (docs/controlplane.md)."""
        n_mods = len(entries) + len(groups)
        owner = self._route(sw_name, "mods.routed", n_mods)
        owner.installs_issued += n_mods
        if owner is not origin:
            self.remote_installs += n_mods
        if owner.cpu is None:
            return self.controller.install_batch(sw_name, entries, groups)
        sim, cpu = self.sim, owner.cpu
        cost = n_mods * self.flowmod_cpu_s
        done = sim.event()

        def start():
            cpu.request().callbacks.append(acquired)

        def acquired(_granted):
            sim.timeout(cost).callbacks.append(charged)

        def charged(_elapsed):
            cpu.release()
            owner.cpu_busy_s += cost
            try:
                sent = self.controller.install_batch(sw_name, entries, groups)
            except Exception as exc:  # mirrored to the caller's barrier
                done.fail(exc)
                return
            sent.callbacks.append(landed)

        def landed(sent):
            if sent.ok:
                done.succeed(sent.value)
            else:
                done.fail(sent.value)

        sim.call_later(0.0, start)
        return done

    def _request_cpu(self, shard: Shard, cpu: float):
        """Charge ``cpu`` seconds of compute (queued on the shard's CPU
        under ``cpu_model="serialized"``)."""
        if shard.cpu is None:
            yield self.sim.timeout(cpu)
            return
        yield shard.cpu.request()
        try:
            yield self.sim.timeout(cpu)
        finally:
            shard.cpu.release()

    def _mac_for(self, addr: IPv4Addr) -> MacAddr:
        found = self._ip_to_mac.get(addr)
        return found if found is not None else MacAddr(0xFFFFFF_0000FE)

    # -- lifecycle --------------------------------------------------------
    def teardown(self, channel_id: int) -> None:
        """Remove every rule of a channel and recycle its identifiers."""
        shard = self.shard_of_channel(channel_id)
        if shard is None:
            return
        channel = shard.channels.pop(channel_id)
        channel.state = "closed"
        for plan in channel.flows:
            # A flow mid-repair or parked has no committed intent: its
            # repairer owns whatever is installed and retracts it on seeing
            # the channel gone.
            compiled = shard.compiled.pop(plan.cookie, None)
            if compiled is not None:
                Attempt(self, shard, plan.cookie, compiled).retract()
            self._release_flow(channel_id, plan)
            shard.parked.pop(plan.cookie, None)
        self.strategy.on_teardown(channel)

    def _release_flow(self, channel_id: int, plan: MFlowPlan) -> None:
        self.registry.release_owner(f"ch{channel_id}/c{plan.cookie}")
        self._used_sports[plan.walk[0]].discard(plan.entry.sport)
        if self.flow_ids.is_live(plan.flow_id):
            self.flow_ids.release(plan.flow_id)

    # -- failure handling --------------------------------------------------
    def on_link_event(self, a: str, b: str, up: bool) -> None:
        """Repair every m-flow whose walk crossed a failed link.

        The controller's routing view has already been updated; each alive
        shard re-plans its affected flows over the surviving fabric while
        pinning their entry and delivery addresses, so both endpoints'
        transport connections survive the rerouting untouched.  A heal
        event instead re-tries every parked flow — a flow parks when no
        surviving path exists at repair time.
        """
        for shard in self.shards:
            if not shard.alive:
                continue
            if up:
                for cookie in list(shard.parked):
                    self._try_unpark(shard, cookie)
                continue
            for channel in list(shard.channels.values()):
                for idx, plan in enumerate(channel.flows):
                    if self._walk_uses(plan.walk, a, b):
                        self._schedule_repair(shard, channel, idx)

    def on_switch_event(self, name: str, up: bool) -> None:
        """Re-sync a rebooted switch's rules from stored channel intent.

        A crash wipes the chassis but leaves its links up, so routing
        around it would be wrong — the installed walks are still the right
        ones, the switch just forgot its rules.  Nothing to do on the down
        edge; the reboot drives one re-install per alive shard.
        """
        if not up:
            return
        for shard in self.shards:
            if shard.alive:
                self.sim.process(self._resync_switch(shard, name),
                                 name="mic.resync")

    @staticmethod
    def _walk_uses(walk: Sequence[str], a: str, b: str) -> bool:
        return any(
            (u, v) in ((a, b), (b, a)) for u, v in zip(walk, walk[1:])
        )

    def _schedule_repair(self, shard: Shard, channel: MimicChannel, idx: int,
                         kind: str = "repair") -> bool:
        cookie = channel.flows[idx].cookie
        if cookie in shard.repairing or cookie in shard.parked:
            return False  # a repairer is already driving (or waiting on) it
        shard.repairing[cookie] = kind
        self.sim.process(self._repair_flow(shard, channel, idx, kind),
                         name=f"mic.{kind}")
        return True

    def rotate_flow(self, channel: MimicChannel, idx: int) -> bool:
        """Re-draw a live flow's interior m-addresses (moving-target hop).

        Rides the repair machinery end to end — remove-by-cookie barrier,
        pinned entry/delivery, undo-on-failure — so a rotation is exactly a
        repair without a triggering fault, run by the shard holding the
        channel.  Skipped (returns False) while a repairer or the parking
        lot already owns the flow.
        """
        shard = self.shard_of_channel(channel.channel_id)
        return shard is not None and self._schedule_repair(
            shard, channel, idx, kind="rotate"
        )

    def _walk_alive(self, walk: Sequence[str]) -> bool:
        """Every edge of the walk still exists in the routing view."""
        graph = self.controller.view.graph
        return all(graph.has_edge(u, v) for u, v in zip(walk, walk[1:]))

    def _repair_flow(self, shard: Shard, channel: MimicChannel, idx: int,
                     kind: str = "repair"):
        old = channel.flows[idx]
        cookie = old.cookie
        owner = f"ch{channel.channel_id}/c{cookie}"
        span = begin_span(
            self.obs, "mic.rotate" if kind == "rotate" else "mic.repair",
            channel=channel.channel_id, flow_id=old.flow_id,
        )
        try:
            # Remove the old rules and registry claims.  The scope is the
            # committed intent; a flow adopted mid-repair (the dead shard
            # had taken its intent) or un-parked has none and falls back to
            # its walk.  The barrier matters — the new plan re-uses this
            # cookie, so a removal landing late (lossy control plane) would
            # eat the replacement rules.
            attempt = Attempt(self, shard, cookie, shard.compiled.pop(cookie, None) or ([
                (node, None) for node in old.walk
                if self.net.topo.kind(node) == "switch"
            ],))
            self.registry.release_owner(owner)
            yield self.sim.all_of(attempt.retract())
            while True:
                orphaned = attempt.orphaned(channel)
                if orphaned:
                    span.finish(outcome=orphaned)
                    return
                # Re-plan over the surviving fabric, pinning the identity.
                try:
                    new_plan = self._plan_flow(
                        shard, channel.initiator, channel.responder, old.delivery.dport,
                        len(old.mn_positions), cookie=cookie, owner=owner,
                        flow_id=old.flow_id, entry_pin=old.entry, delivery_pin=old.delivery,
                        alias_pins=old.aliases, proto=old.proto,
                    )
                except (EstablishError, ValueError, KeyError, IndexError,
                        NoPathError):
                    # No surviving path (or not enough switches on any):
                    # park the flow instead of killing the sim; the parked
                    # loop and heal events will bring it back.
                    shard.parked[cookie] = (channel, idx)
                    self.repairs_parked += 1
                    self._ensure_park_loop(shard, cookie)
                    span.finish(outcome="parked")
                    return
                attempt = Attempt(self, shard, cookie, self.strategy.compile_flow(
                    new_plan, owner, channel.decoys, shard.rng
                )).push()
                failure = yield from Attempt.settle([attempt])
                orphaned = attempt.orphaned(channel)
                if orphaned == "abandoned":
                    span.finish(outcome=orphaned)
                    return  # the adopter owns this cookie now: hands off
                if failure is None and orphaned is None and self._walk_alive(new_plan.walk):
                    break  # the commit point
                # A switch refused a bundle (crashed chassis, retry budget
                # spent), a second failure hit the new walk, or the channel
                # was torn down while the sends were in flight: undo.
                yield self.sim.all_of(attempt.retract())
                self.registry.release_owner(owner)
                if orphaned:
                    span.finish(outcome=orphaned)
                    return
                if failure is not None:
                    # re-plan over the by-then-current view after a backoff
                    yield self.sim.timeout(self.park_retry_s)
            channel.flows[idx] = new_plan
            attempt.commit()
            if kind == "rotate":
                self.strategy.rotations_completed += 1
                self.strategy.rotation_installs += sum(map(len, attempt.compiled))
            else:
                self.repairs_completed += 1
            if self.verify_installs:
                self.verify().raise_if_failed()
            span.finish(outcome="rotated" if kind == "rotate" else "repaired")
        finally:
            shard.repairing.pop(cookie, None)

    # -- parked flows (no surviving path) ----------------------------------
    def _ensure_park_loop(self, shard: Shard, cookie: int) -> None:
        if cookie not in shard.park_loops:
            shard.park_loops.add(cookie)
            self.sim.process(self._parked_retry_loop(shard, cookie),
                             name="mic.park")

    def _parked_retry_loop(self, shard: Shard, cookie: int):
        """Backoff retries for one parked flow (heal events also retry)."""
        try:
            delay = self.park_retry_s
            while cookie in shard.parked:
                yield self.sim.timeout(delay)
                if not shard.alive:
                    return
                delay = min(delay * 2, 8 * self.park_retry_s)
                self._try_unpark(shard, cookie)
        finally:
            shard.park_loops.discard(cookie)

    def _try_unpark(self, shard: Shard, cookie: int) -> None:
        entry = shard.parked.get(cookie)
        if entry is None or cookie in shard.repairing:
            return
        channel, idx = entry
        if channel.channel_id not in shard.channels:
            shard.parked.pop(cookie, None)  # torn down while parked
            return
        # Leave the parking lot only when the view offers a path again; the
        # repairer re-parks if the path is still too short for the MN count.
        try:
            self.controller.view.shortest_path(channel.initiator, channel.responder)
        except (KeyError, NoPathError, IndexError):
            return
        shard.parked.pop(cookie)
        self._schedule_repair(shard, channel, idx)

    @property
    def parked_flows(self) -> int:
        """Number of flows currently parked awaiting a surviving path."""
        return sum(len(s.parked) for s in self.shards)

    @property
    def repairs_in_flight(self) -> int:
        """Number of flows with an active repair process right now."""
        return sum(len(s.repairing) for s in self.shards)

    # -- switch resync (reboot recovery) ------------------------------------
    def _resync_switch(self, shard: Shard, name: str):
        """Re-install every live flow's rules on a rebooted switch.

        Driven from stored compiled intent (:attr:`Shard.compiled`), so the
        addresses and labels are exactly the ones the endpoints are already
        using — no re-draw, no RNG.  Flows mid-repair or parked are skipped;
        their repairer owns their rules.
        """
        span = begin_span(self.obs, "mic.resync", switch=name)
        pushed: list[tuple[MimicChannel, Attempt]] = []
        n_rules = 0
        for channel in list(shard.channels.values()):
            for plan in channel.flows:
                compiled = shard.compiled.get(plan.cookie)
                if compiled is None or plan.cookie in shard.repairing:
                    continue
                attempt = Attempt(self, shard, plan.cookie, compiled).push(only=name)
                pushed.append((channel, attempt))
                n_rules += sum(sw == name for sw, _e in compiled[0] + compiled[2])
        failure = yield from Attempt.settle([attempt for _ch, attempt in pushed])
        if not shard.alive:
            span.finish(outcome="abandoned")
            return
        for channel, attempt in pushed:
            if attempt.orphaned(channel):  # torn down while its bundle was in flight
                attempt.retract()
        if failure is not None:
            # Crashed again mid-resync: the next reboot will re-drive.
            span.finish(ok=False)
            return
        self.resyncs_completed += 1
        if self.verify_installs:
            self.verify().raise_if_failed()
        span.finish(rules=n_rules)

    def _expiry_loop(self):
        # One loop per deployment: a dead shard holds no channels, so the
        # walk covers exactly the alive shards, and a rejoin needs no
        # restart.
        while True:
            yield self.sim.timeout(self.idle_timeout_s)
            now = self.sim.now
            stale = [
                cid
                for cid, ch in self.channels.items()
                if ch.idle_for(now) > self.idle_timeout_s
            ]
            for cid in stale:
                self.teardown(cid)

    # -- shard failover ------------------------------------------------------
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
        alive = tuple(i for i in self._alive_ids if i != shard_id)
        if not alive:
            raise RuntimeError("cannot crash the last alive shard")
        shard.alive = False
        self._alive_ids = alive
        self.failovers += 1
        span = begin_span(self.obs, "mic.shard.failover", shard=shard_id)
        was_repairing = dict(shard.repairing)
        was_parked = dict(shard.parked)
        shard.repairing.clear()
        shard.parked.clear()
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
                    # the original park already counted).
                    adopter.parked[plan.cookie] = (channel, idx)
                    self.flows_reparked += 1
                    self._ensure_park_loop(adopter, plan.cookie)
                elif plan.cookie in was_repairing:
                    # The repair (or rotation) died with its shard; re-drive
                    # it on the adopter as the same kind (its removal scope
                    # comes from the adopted compiled intent, so no rules
                    # leak).
                    self._schedule_repair(adopter, channel, idx,
                                          kind=was_repairing[plan.cookie])
                    self.repairs_rescheduled += 1
        self.channels_adopted += adopted
        span.finish(channels_adopted=adopted)

    def rejoin_shard(self, shard_id: int) -> None:
        """Bring a crashed shard back (adopted channels do not fail back)."""
        shard = self.shards[shard_id]
        if shard.alive:
            return
        shard.alive = True
        self._alive_ids = tuple(s.shard_id for s in self.shards if s.alive)

    # -- introspection ------------------------------------------------------
    def verify(self):
        """Statically verify the installed data plane against the live plans.

        Returns a :class:`repro.analysis.VerificationReport`; call
        ``raise_if_failed()`` on it (or construct the controller with
        ``verify=True``) to turn findings into exceptions.
        """
        from ..analysis import verify_network

        return verify_network(self.net, mic=self)

    @property
    def channels(self) -> dict[int, MimicChannel]:
        """Every live channel by ID, shard by shard (a fresh dict)."""
        return {cid: ch for s in self.shards for cid, ch in s.channels.items()}

    @property
    def compiled(self) -> dict[int, tuple[list, list, list]]:
        """Every committed compiled intent by cookie (a fresh dict)."""
        return {c: intent for s in self.shards for c, intent in s.compiled.items()}

    def channel_of(self, channel_id: int) -> Optional[MimicChannel]:
        """Live channel state by ID, or None."""
        shard = self.shard_of_channel(channel_id)
        return None if shard is None else shard.channels[channel_id]

    @property
    def live_channels(self) -> int:
        """Number of live channels."""
        return sum(len(s.channels) for s in self.shards)

    @property
    def requests_served(self) -> int:
        """Control requests served, over all shards."""
        return sum(s.requests_served for s in self.shards)

    @property
    def cpu_busy_s(self) -> float:
        """Simulated controller CPU seconds, over all shards."""
        return sum(s.cpu_busy_s for s in self.shards)

    def rule_footprint(self) -> dict[str, int]:
        """MIC rules currently installed, per switch (TCAM load view)."""
        counts: dict[str, int] = {}
        for sw in self.net.switches():
            n = len(sw.table.entries_at(MIC_PRIORITY)) + len(
                sw.table.entries_at(DECOY_DROP_PRIORITY)
            )
            if n:
                counts[sw.name] = n
        return counts

    def stats(self) -> dict:
        """Operational snapshot of the MC."""
        footprint = self.rule_footprint()
        return {
            "anonymity_strategy": self.strategy.name,
            "rotations_completed": self.strategy.rotations_completed,
            "rotation_installs": self.strategy.rotation_installs,
            "live_channels": self.live_channels,
            "live_flows": self.flow_ids.live_count,
            "registry_keys": self.registry.total_keys(),
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


@dataclass(frozen=True)
class MAddressDraw:
    """Pinning spec for one end of a segment draw."""

    src_ip: Optional[IPv4Addr] = None
    dst_ip: Optional[IPv4Addr] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
