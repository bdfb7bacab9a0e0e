"""FRVM-style virtual-address multiplexing.

FRVM (Sharma et al.) gives every protected host *k* simultaneously valid
random virtual addresses, so no single observed address identifies a
conversation and traffic can be striped across identities.  Expressed on
this repo's data plane: each m-flow keeps its primary entry address and
gains ``k - 1`` *alias* entry addresses drawn from the same plausible-pair
pools, each compiled into a parallel forwarding lane over segment 0 that
converges onto the flow's rewrite chain at the first Mimic Node.  The
user-end datagram socket round-robins sends across the lanes.

Aliases ride the existing lifecycle for free: they are registered under
the flow's registry owner and compiled under its cookie, so teardown,
repair and switch resync all cover them.  Like the primary entry address,
aliases are host-visible, so a repair re-plan pins them: the client keeps
striping over the lanes it was granted and every lane survives onto the
re-drawn walk.
"""

from __future__ import annotations

import random

from ..core.channel import FlowGrant, MFlowPlan
from ..net.flowtable import FlowEntry, Output
from .base import Strategy, register_strategy

__all__ = ["FrvmMultiplex"]


@register_strategy
class FrvmMultiplex(Strategy):
    """Grant ``k`` simultaneous entry addresses per m-flow (k-1 aliases)."""

    name = "frvm"
    source = "FRVM (Sharma et al.)"
    mechanism = (
        "k simultaneous entry aliases per m-flow, parallel segment-0 lanes "
        "converging at the first MN; datagram sends striped across lanes"
    )
    knobs = "`k`"

    def __init__(self, k: int = 3):
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    # -- alias draw ------------------------------------------------------
    def finish_plan(
        self, plan: MFlowPlan, owner: str, endpoints: tuple[str, str],
        rng: random.Random, alias_pins: tuple = (),
    ) -> None:
        """Draw ``k - 1`` alias entry addresses over the first segment."""
        first_mn = plan.mn_positions[0]
        seg_nodes = plan.walk[: first_mn + 1]
        entry = plan.fwd_addrs[0]
        # Pin the real source identity (the initiator's bound socket); the
        # fake destination identity is the multiplexed part.  During a
        # repair re-plan the old aliases arrive as pins: they are
        # host-visible (the client stripes sends across them), so the same
        # addresses are reclaimed on the new walk's first segment.
        aliases = []
        if alias_pins:
            pins = [
                self._cmod.MAddressDraw(
                    src_ip=entry.src_ip, sport=entry.sport,
                    dst_ip=a.dst_ip, dport=a.dport,
                )
                for a in alias_pins
            ]
        else:
            pins = [
                self._cmod.MAddressDraw(src_ip=entry.src_ip, sport=entry.sport)
            ] * (self.k - 1)
        for pin in pins:
            aliases.append(
                self.draw_segment(
                    seg_nodes, [pin], None, plan.flow_id, owner, endpoints, rng
                )
            )
        plan.aliases = tuple(aliases)

    # -- compilation -----------------------------------------------------
    def compile_flow(
        self, plan: MFlowPlan, owner: str, decoys: int, rng: random.Random
    ) -> tuple[list, list, list]:
        """Base rules plus one segment-0 forwarding lane per alias, each
        converging onto the flow's rewrite chain at the first MN."""
        rules, groups, drops = super().compile_flow(plan, owner, decoys, rng)
        mic = self.mic
        walk = plan.walk
        first_mn = plan.mn_positions[0]
        for alias in plan.aliases:
            for j in range(1, first_mn + 1):
                match = self.match_for(walk, j, alias, plan.proto)
                actions = []
                if j == first_mn:
                    # The lane converges: rewrite the alias identity into
                    # the flow's post-MN segment address.
                    actions.extend(self.rewrite_actions(alias, plan.fwd_addrs[1]))
                actions.append(Output(mic.net.port(walk[j], walk[j + 1])))
                rules.append(
                    (
                        walk[j],
                        FlowEntry(
                            match, actions,
                            priority=self._cmod.MIC_PRIORITY,
                            cookie=plan.cookie,
                        ),
                    )
                )
        return rules, groups, drops

    # -- grants / verification ------------------------------------------
    def flow_grant(self, plan: MFlowPlan) -> FlowGrant:
        """Expose the alias lanes to the initiator as ``alt_entries``."""
        return FlowGrant(
            entry_ip=plan.entry.dst_ip,
            entry_port=plan.entry.dport,
            source_port=plan.entry.sport,
            alt_entries=tuple((a.dst_ip, a.dport) for a in plan.aliases),
        )

    def replay_views(self, plan: MFlowPlan) -> list[tuple]:
        """One verifier replay per lane: primary plus every alias view."""
        views = super().replay_views(plan)
        for alias in plan.aliases:
            views.append(
                (plan.walk, plan.mn_positions, [alias] + list(plan.fwd_addrs[1:]))
            )
        return views
