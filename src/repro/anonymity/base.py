"""The pluggable anonymity Strategy layer.

A :class:`Strategy` owns the *mechanism* of a Mimic Controller: how
per-segment m-addresses are drawn, how an :class:`~repro.core.channel.MFlowPlan`
compiles into switch rules/groups/decoy drops, what happens when a channel
goes live (e.g. start a rotation clock), and what the static verifier
should replay.  The controller keeps the *policy-free* machinery — walks,
grants, installs, repair/park/resync — and delegates everything
mechanism-shaped here, so alternative designs from the related work
(TARN's timed address hopping, FRVM's virtual-address multiplexing) are
small subclasses sharing one battle-tested data plane.

Strategies are registered by name (see :data:`STRATEGIES`) and selected
with ``MimicController(strategy="...")``; the contract table embedded in
``docs/anonymity.md`` is rendered by :func:`format_strategy_table` and
kept in sync by a both-ways diff test.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ..core.channel import FlowGrant, MFlowPlan, MimicChannel
from ..core.collision import MAddress
from ..core.restrictions import SegmentPool
from ..net.flowtable import (
    Drop,
    FlowEntry,
    Group as GroupAction,
    GroupEntry,
    Match,
    Output,
    PopMpls,
    PushMpls,
    SetField,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import MimicController

__all__ = [
    "STRATEGIES",
    "Strategy",
    "format_strategy_table",
    "get_strategy",
    "register_strategy",
]


class Strategy:
    """Base anonymity strategy: MIC's draw/compile mechanism, hook points.

    Subclasses override the hooks; the base implementation *is* the MIC
    mechanism (the historical ``MimicController`` private methods moved
    here verbatim), so ``MicRewrite`` adds nothing but its name.
    """

    #: registry key and scorecard/obs label
    name = "abstract"
    #: where the design comes from (for the docs contract table)
    source = ""
    #: one-line mechanism description (docs contract table)
    mechanism = ""
    #: tuning knobs exposed by the constructor (docs contract table)
    knobs = ""

    def __init__(self) -> None:
        self.mic: Optional["MimicController"] = None
        #: moving-target accounting (scorecard + obs contract)
        self.rotations_completed = 0
        self.rotation_installs = 0
        #: attack ground truth: every drawn m-address signature
        #: ``(src, dst, sport, dport, mpls)`` -> flow_id.  Churn-exploitation
        #: attackers are scored against this map.
        self.flow_signatures: dict[tuple, int] = {}
        #: signatures drawn for decoy branches (noise, never true linkage)
        self.decoy_signatures: set[tuple] = set()

    # -- wiring ----------------------------------------------------------
    def bind(self, mic: "MimicController") -> "Strategy":
        """Attach to a controller; returns self for chaining."""
        # Imported lazily: repro.core.controller imports this module at
        # load time.
        from ..core import controller as cmod

        self.mic = mic
        self._cmod = cmod
        self.on_bind()
        return self

    def on_bind(self) -> None:
        """Hook: called once the controller (sim, net, rng) is available."""

    # -- lifecycle hooks -------------------------------------------------
    def on_established(self, channel: MimicChannel) -> None:
        """Hook: a channel's rules are installed and granted."""

    def on_teardown(self, channel: MimicChannel) -> None:
        """Hook: a channel was torn down (rules already removed)."""

    def finish_plan(
        self, plan: MFlowPlan, owner: str, endpoints: tuple[str, str],
        rng: random.Random, alias_pins: tuple = (),
    ) -> None:
        """Hook: amend a freshly drawn plan (e.g. draw alias addresses).

        ``rng`` is the planning shard's stream.  ``alias_pins`` carries the
        previous plan's aliases during a repair re-plan: like the
        entry/delivery pins, alias addresses are host-visible, so a strategy
        that granted them must reclaim the same addresses on the new
        walk."""

    # -- grants ----------------------------------------------------------
    def flow_grant(self, plan: MFlowPlan) -> FlowGrant:
        """What the initiator learns about one planned m-flow."""
        return FlowGrant(
            entry_ip=plan.entry.dst_ip,
            entry_port=plan.entry.dport,
            source_port=plan.entry.sport,
        )

    # -- verifier views --------------------------------------------------
    def replay_views(self, plan: MFlowPlan) -> list[tuple]:
        """(walk, mn_positions, addrs) triples the verifier must replay."""
        return plan.directions()

    # -- accounting ------------------------------------------------------
    @property
    def live_aliases(self) -> int:
        """Alias (extra simultaneous entry) addresses currently granted."""
        if self.mic is None:
            return 0
        return sum(
            len(plan.aliases)
            for channel in self.mic.channels.values()
            for plan in channel.flows
        )

    def record_signature(self, addr: MAddress, flow_id: int) -> None:
        """Ground-truth bookkeeping for one drawn m-address."""
        self.flow_signatures[
            (addr.src_ip.text, addr.dst_ip.text, addr.sport, addr.dport, addr.mpls)
        ] = flow_id

    # -- m-address draw policy (Sec IV-B2/B3) ----------------------------
    def draw_addresses(
        self,
        walk: list[str],
        mn_positions: list[int],
        flow_id: int,
        first,
        last,
        owner: str,
        endpoints: tuple[str, str],
        rng: random.Random,
    ) -> list[MAddress]:
        """Segment addresses A[0..N] for one direction of a walk.

        ``first`` pins the real fields of the initiator-side segment,
        ``last`` those of the delivery segment; everything unpinned is drawn
        on ``rng`` (the planning shard's stream) from the segment's
        plausible host pairs and the owning MN's hash class (label), with a
        retry loop guarding against random-draw collisions with
        already-registered keys.
        """
        boundaries = [0] + mn_positions + [len(walk) - 1]
        addrs: list[MAddress] = []
        n_segments = len(mn_positions) + 1
        for seg in range(n_segments):
            seg_nodes = walk[boundaries[seg] : boundaries[seg + 1] + 1]
            pins = []
            if seg == 0:
                pins.append(first)
            if seg == n_segments - 1:
                pins.append(last)
            # A segment is labeled only between two MNs: the first MN pushes
            # the shim, the last MN pops it (hosts cannot parse MPLS).
            labeled = 0 < seg < n_segments - 1
            mn_name = walk[mn_positions[seg - 1]] if labeled else None
            addr = self.draw_segment(
                seg_nodes, pins, mn_name, flow_id, owner, endpoints, rng
            )
            addrs.append(addr)
        return addrs

    def plausible_pool(
        self, seg_nodes: list[str], pin_src, pin_dst,
        endpoints: tuple[str, str] = (),
    ) -> SegmentPool:
        """A segment's pool narrowed to the pinned IPs' hosts and away from
        the channel's real endpoints, counted but never listed.

        Each rule clears rows (sources) or columns (destinations) of the
        segment's mask and is relaxed when nothing else would be left;
        survivors keep their order.  An IP no host owns ranks -1 and so
        narrows nothing.  ``segment_mask`` applies the pins, reading only
        a pinned source's row, a pinned destination's column or the one
        pinned pair; the ban then clears the view the pins leave.
        """
        mic = self.mic
        restrictions = mic.restrictions
        view = restrictions.view
        src = view.host_rank(mic._ip_to_host.get(pin_src))
        dst = view.host_rank(mic._ip_to_host.get(pin_dst))
        pool = restrictions.segment_mask(seg_nodes, src, dst)
        # Fake draws must never name the channel's real endpoints: a drawn
        # address equal to the true initiator/responder would hand the
        # adversary a correct identity (the entry address "hides the address
        # of the responder", Sec IV-A1).  One rule over both unpinned sides
        # (an unpinned side's view is whole: ``top`` or ``left`` is 0).
        ranks = set(map(view.host_rank, endpoints)) - {-1}
        if ranks and (pin_src is None or pin_dst is None):
            narrowed = pool.mask.copy()
            for rank in ranks:  # basic indexing: a list index costs ~3 µs
                if pin_src is None:
                    narrowed[rank] = False
                if pin_dst is None:
                    narrowed[:, rank] = False
            size = np.count_nonzero(narrowed)
            if size:
                return SegmentPool(narrowed, pool.top, pool.left, pool.fallback, size)
        return pool

    def draw_segment(
        self,
        seg_nodes: list[str],
        pins: list,
        mn_name: Optional[str],
        flow_id: int,
        owner: str,
        endpoints: tuple[str, str],
        rng: random.Random,
    ) -> MAddress:
        """Draw one collision-free segment address (registry-registered)."""
        mic = self.mic
        pin_src = pin_dst = pin_sport = pin_dport = None
        for pin in pins:  # the first pin that sets a field wins
            if pin_src is None:
                pin_src = pin.src_ip
            if pin_dst is None:
                pin_dst = pin.dst_ip
            if pin_sport is None:
                pin_sport = pin.sport
            if pin_dport is None:
                pin_dport = pin.dport

        pool = self.plausible_pool(seg_nodes, pin_src, pin_dst, endpoints)
        draw_pair, host_ip = mic.restrictions.draw_pair, mic.net.topo.host_ip
        registry, kind = mic.registry, mic.net.topo.kind
        switches = [node for node in seg_nodes if kind(node) == "switch"]
        for _attempt in range(64):
            a, b = draw_pair(pool, rng)
            src_ip = pin_src if pin_src is not None else host_ip(a)
            dst_ip = pin_dst if pin_dst is not None else host_ip(b)
            sport = pin_sport if pin_sport is not None else rng.randint(1024, 65535)
            dport = pin_dport if pin_dport is not None else rng.randint(1024, 65535)
            if mn_name is None:
                mpls = None  # unlabeled first segment (hosts cannot push MPLS)
            else:
                mpls = mic.mn_spaces[mn_name].draw_label(
                    flow_id, src_ip, dst_ip, rng
                )
            addr = MAddress(src_ip, dst_ip, sport, dport, mpls)
            key = (src_ip.text, dst_ip.text, mpls, sport, dport)
            for node in seg_nodes:
                if registry.owner(node, key) not in (None, owner):
                    break
            else:
                for node in switches:
                    registry.register(node, key, owner)
                self.record_signature(addr, flow_id)
                return addr
        raise self._cmod.EstablishError("could not draw a collision-free m-address")

    # -- rule compilation ------------------------------------------------
    def compile_flow(
        self, plan: MFlowPlan, owner: str, decoys: int, rng: random.Random
    ) -> tuple[list, list, list]:
        """Compile one plan into (rules, groups, drops) install intents
        (decoy addresses drawn on ``rng``, the planning shard's stream)."""
        rules: list = []
        for walk, mns, addrs in plan.directions():
            rules += self.compile_direction(walk, mns, addrs, plan.cookie, plan.proto)
        groups: list = []
        drops: list = []
        if decoys > 0:
            rules, groups, drops = self.add_decoys(plan, rules, decoys, owner, rng)
        return rules, groups, drops

    def compile_direction(
        self,
        walk: list[str],
        mn_positions: list[int],
        addrs: list[MAddress],
        cookie: int,
        proto: str = "tcp",
    ) -> list[tuple[str, FlowEntry]]:
        """Per-hop match/rewrite/forward rules for one direction."""
        mic = self.mic
        rules: list[tuple[str, FlowEntry]] = []
        mn_set = set(mn_positions)
        # MNs are distinct interior hops: the segment a hop reads is the
        # number of MNs before it, counted as the walk goes
        k_in = 0
        for j in range(1, len(walk) - 1):
            addr_in = addrs[k_in]
            match = self.match_for(walk, j, addr_in, proto)
            actions = []
            if j in mn_set:
                k_in += 1
                actions.extend(self.rewrite_actions(addr_in, addrs[k_in]))
            actions.append(Output(mic.net.port(walk[j], walk[j + 1])))
            rules.append(
                (
                    walk[j],
                    FlowEntry(
                        match, actions,
                        priority=self._cmod.MIC_PRIORITY, cookie=cookie,
                    ),
                )
            )
        return rules

    def match_for(
        self, walk: list[str], j: int, addr: MAddress, proto: str = "tcp"
    ) -> Match:
        """The exact-match key for hop ``j`` of a walk."""
        mic = self.mic
        return Match(
            in_port=mic.net.port(walk[j], walk[j - 1]),
            ip_src=addr.src_ip,
            ip_dst=addr.dst_ip,
            proto=proto,
            sport=addr.sport,
            dport=addr.dport,
            mpls=addr.mpls if addr.mpls is not None else Match.NO_MPLS,
        )

    def rewrite_actions(self, a_in: MAddress, a_out: MAddress) -> list:
        """Header rewrites turning ``a_in`` into ``a_out`` (the MN primitive)."""
        mic = self.mic
        actions: list = []
        if a_out.src_ip != a_in.src_ip:
            actions.append(SetField("ip_src", a_out.src_ip))
            actions.append(SetField("eth_src", mic._mac_for(a_out.src_ip)))
        if a_out.dst_ip != a_in.dst_ip:
            actions.append(SetField("ip_dst", a_out.dst_ip))
            actions.append(SetField("eth_dst", mic._mac_for(a_out.dst_ip)))
        if a_out.sport != a_in.sport:
            actions.append(SetField("sport", a_out.sport))
        if a_out.dport != a_in.dport:
            actions.append(SetField("dport", a_out.dport))
        if a_in.mpls is None and a_out.mpls is not None:
            actions.append(PushMpls(a_out.mpls))
        elif a_in.mpls is not None and a_out.mpls is None:
            actions.append(PopMpls())
        elif a_in.mpls != a_out.mpls:
            actions.append(SetField("mpls", a_out.mpls))
        return actions

    # -- partial multicast (Sec IV-C) ------------------------------------
    def add_decoys(
        self,
        plan: MFlowPlan,
        rules: list[tuple[str, FlowEntry]],
        decoys: int,
        owner: str,
        rng: random.Random,
    ) -> tuple[list, list, list]:
        """Convert the first forward MN's rule into a type-*all* group that
        also emits decoy copies toward other ports; the decoy next hops get
        explicit drop rules."""
        mic = self.mic
        first_mn_pos = plan.mn_positions[0]
        mn_name = plan.walk[first_mn_pos]
        prev_node = plan.walk[first_mn_pos - 1]
        next_node = plan.walk[first_mn_pos + 1]
        target_idx = None
        for i, (sw_name, entry) in enumerate(rules):
            if sw_name == mn_name and entry.match.in_port == mic.net.port(
                mn_name, prev_node
            ):
                target_idx = i
                break
        if target_idx is None:  # pragma: no cover - defensive
            return rules, [], []
        real_entry = rules[target_idx][1]

        # Candidate decoy neighbors: switches adjacent to the MN, excluding
        # the real previous/next hops.
        neighbors = [
            n
            for n in mic.net.topo.neighbors(mn_name)
            if n not in (prev_node, next_node)
            and mic.net.topo.kind(n) == "switch"
        ]
        # Draw the neighbor choice from a seeded per-owner stream: placement
        # then depends only on (seed, owner), not on how many draws earlier
        # flows consumed from the main controller stream, and repairs of the
        # same flow continue the stream instead of replaying it.
        decoy_rng = mic.sim.rng(f"mic-decoys/{owner}")
        chosen = decoy_rng.sample(neighbors, min(decoys, len(neighbors)))

        buckets = [list(real_entry.actions)]
        drops: list[tuple[str, FlowEntry]] = []
        for neighbor in chosen:
            seg = [mn_name, neighbor]
            pair = mic.restrictions.sample_pair(seg, rng)
            d_src = mic.net.topo.host_ip(pair[0])
            d_dst = mic.net.topo.host_ip(pair[1])
            label = mic.mn_spaces[mn_name].draw_label(
                plan.flow_id, d_src, d_dst, rng
            )
            d_sport = rng.randint(1024, 65535)
            d_dport = rng.randint(1024, 65535)
            bucket = [
                SetField("ip_src", d_src),
                SetField("eth_src", mic._mac_for(d_src)),
                SetField("ip_dst", d_dst),
                SetField("eth_dst", mic._mac_for(d_dst)),
                SetField("sport", d_sport),
                SetField("dport", d_dport),
                PushMpls(label),
                Output(mic.net.port(mn_name, neighbor)),
            ]
            buckets.append(bucket)
            key = (d_src.text, d_dst.text, label, d_sport, d_dport)
            mic.registry.register(neighbor, key, owner)
            self.decoy_signatures.add(
                (d_src.text, d_dst.text, d_sport, d_dport, label)
            )
            drop_match = Match(
                in_port=mic.net.port(neighbor, mn_name),
                ip_src=d_src,
                ip_dst=d_dst,
                sport=d_sport,
                dport=d_dport,
                mpls=label,
            )
            drops.append(
                (
                    neighbor,
                    FlowEntry(
                        drop_match, [Drop()],
                        priority=self._cmod.DECOY_DROP_PRIORITY,
                        cookie=plan.cookie,
                    ),
                )
            )

        group_id = next(mic.sim.ids("mic.group"))
        group = GroupEntry(group_id=group_id, buckets=buckets, cookie=plan.cookie)
        rules[target_idx] = (
            mn_name,
            FlowEntry(
                real_entry.match,
                [GroupAction(group_id)],
                priority=real_entry.priority,
                cookie=real_entry.cookie,
            ),
        )
        return rules, [(mn_name, group)], drops


# ---------------------------------------------------------------------------
# registry + docs contract
# ---------------------------------------------------------------------------

STRATEGIES: dict[str, type[Strategy]] = {}


def register_strategy(cls: type[Strategy]) -> type[Strategy]:
    """Class decorator: make a strategy selectable by ``name``."""
    STRATEGIES[cls.name] = cls
    return cls


def get_strategy(spec: Union[str, Strategy, type[Strategy]]) -> Strategy:
    """Resolve a strategy spec (name, instance, or class) to an instance."""
    if isinstance(spec, Strategy):
        return spec
    if isinstance(spec, type) and issubclass(spec, Strategy):
        return spec()
    try:
        return STRATEGIES[spec]()
    except KeyError:
        raise ValueError(
            f"unknown anonymity strategy {spec!r}; known: {sorted(STRATEGIES)}"
        ) from None


def format_strategy_table() -> str:
    """The Strategy contract table embedded in docs/anonymity.md."""
    lines = [
        "| strategy | source | mechanism | knobs |",
        "|---|---|---|---|",
    ]
    for name in sorted(STRATEGIES):
        cls = STRATEGIES[name]
        lines.append(
            f"| `{name}` | {cls.source} | {cls.mechanism} | {cls.knobs} |"
        )
    return "\n".join(lines)
