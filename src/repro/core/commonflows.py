"""Common-flow MPLS tagging (the CF category of Sec IV-B3).

The collision-avoidance mechanism "divide[s] the MPLS label into two
disjoint categories, one used to mark the common flows (CF), and the other
used to mark the m-flows (MF)" — so that a common flow and an m-flow can
never present the same ⟨src, dst, mpls⟩ triple, and so that m-flow labels
do not stand out as the only labeled traffic.

:class:`CommonFlowTagger` retrofits that onto the baseline L3 routing: the
ingress edge switch pushes a label from the CF category (``g(label) =
C_ID``, known only to the MC), and the egress edge switch pops it before
delivery — hosts stay MPLS-oblivious, matching MIC's no-kernel-changes
goal.
"""

from __future__ import annotations

from typing import Sequence

from ..net.flowtable import FlowEntry, Match, Output, PopMpls, PushMpls
from .controller import MimicController

__all__ = ["CommonFlowTagger"]

#: tag rules shadow the untagged L3 rules but stay below m-flow rules
TAG_PRIORITY = 20


class CommonFlowTagger:
    """Installs CF-label push/forward/pop rules along a common flow's path.

    Works against the :class:`MimicController`'s label space (only the MC
    knows which labels are CF) and the paths the L3 app recorded.
    """

    def __init__(self, mic: MimicController):
        self.mic = mic
        self.controller = mic.controller
        self.net = mic.net
        self.tagged_pairs: set[tuple[str, str]] = set()

    def tag_pair_path(self, path: Sequence[str], cookie: int = 0) -> list:
        """Install tagging rules for one direction of a host pair path.

        Returns the install events.  The path must be host-terminated:
        ``[src_host, switches…, dst_host]``.
        """
        if len(path) < 3:
            raise ValueError("path must contain at least one switch")
        src_host, dst_host = path[0], path[-1]
        if (src_host, dst_host) in self.tagged_pairs:
            return []
        self.tagged_pairs.add((src_host, dst_host))
        src_ip = self.net.topo.host_ip(src_host)
        dst_ip = self.net.topo.host_ip(dst_host)
        label = self.mic.labels.common_label(self.mic.rng)

        events = []
        switches = path[1:-1]
        for j, sw in enumerate(switches, start=1):
            in_port = self.net.port(sw, path[j - 1])
            out_port = self.net.port(sw, path[j + 1])
            first, last = j == 1, j == len(switches)
            if first and last:
                # Single-switch path: nothing to hide between edges.
                continue
            if first:
                match = Match(in_port=in_port, ip_src=src_ip, ip_dst=dst_ip,
                              mpls=Match.NO_MPLS)
                actions = [PushMpls(label), Output(out_port)]
            elif last:
                match = Match(in_port=in_port, ip_src=src_ip, ip_dst=dst_ip,
                              mpls=label)
                actions = [PopMpls(), Output(out_port)]
            else:
                match = Match(in_port=in_port, ip_src=src_ip, ip_dst=dst_ip,
                              mpls=label)
                actions = [Output(out_port)]
            entry = FlowEntry(match, actions, priority=TAG_PRIORITY, cookie=cookie)
            events.append(self.controller.install_batch(sw, [entry]))
        return events

    def tag_all_recorded(self, l3_app) -> list:
        """Tag every pair path the L3 app has installed so far."""
        events = []
        for pair, path in l3_app.pair_paths.items():
            events.extend(self.tag_pair_path(path))
        return events
