"""Per-link m-address plausibility restrictions.

Sec IV-B3: "the m_src_ip and m_dst_ip should subject to different
restrictions on different MNs" — e.g. in a fat-tree, packets leaving toward
the core must carry source addresses from the subtree below, or an observer
could tell a fake address from a real one.

We generalize the paper's example to any topology: a pair of real hosts
(a, b) is *plausible* on directed link u→v iff some equal-cost shortest path
from a to b traverses u→v.  An m-address pair drawn from the plausible set
of every link of a segment is indistinguishable from a routed common flow at
every observation point on that segment — and for a walk n0…nk that set
is one distance compare (:meth:`TopologyView.on_geodesic`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sdn.discovery import TopologyView

__all__ = ["AddressRestrictions"]


class AddressRestrictions:
    """Plausible (src_host, dst_host) pools per directed link / segment.

    A segment's pool is a boolean mask over host ranks (:meth:`segment_mask`)
    read from the routing view's *current* distances at every call, so
    pools follow link events.  The Mimic Controller narrows that mask, takes
    its flat pair indices (:meth:`pool_index`) and names only the pair it
    draws (:meth:`draw_pair`); the list-returning methods are materialising
    views for tests, oracles and analyses.
    """

    def __init__(self, view: TopologyView):
        self.view = view

    def plausible_pairs(self, u: str, v: str) -> list[tuple[str, str]]:
        """Host pairs for which u→v is on a shortest path, in ``hosts()``
        order."""
        return self.view.plausible_host_pairs(u, v)

    def segment_mask(
        self, nodes: Sequence[str], src_rank: int = -1
    ) -> tuple[np.ndarray, int, bool]:
        """The pool of a node segment — pairs plausible on *every* directed
        link, :meth:`TopologyView.on_geodesic` — as ``(mask, top,
        fallback)``: booleans by host rank whose row ``i`` is source rank
        ``top + i``, and whether the pool is a fallback.  When the compare
        is empty (stretched bounce walks traverse link sequences no shortest
        path uses) the pool is the first link's set, then the all-pairs
        universe — a sampled address is always a real host pair.

        ``src_rank >= 0`` (a pinned source's host) returns only that row,
        ``top == src_rank``, when it has a pair: exactly what narrowing the
        whole pool to the source would keep.
        """
        view = self.view
        if len(nodes) > 1:
            if src_rank >= 0:
                row = view.on_geodesic(nodes, src_rank)
                if row.any():
                    return row[None, :], src_rank, False
            mask = view.on_geodesic(nodes)
            if mask.any():
                return mask, 0, False
            mask = view.on_geodesic(nodes[:2])
            if mask.any():
                return mask, 0, True
        return ~np.eye(len(view.hosts), dtype=bool), 0, True

    def pool_index(self, mask: np.ndarray, top: int, fallback: bool) -> np.ndarray:
        """A (narrowed) :meth:`segment_mask` as flat pair indices in pool
        order: ascending, which is the ``sorted()`` order of the name
        tuples — or, for a fallback, ``hosts()`` order."""
        index = mask.ravel().nonzero()[0].astype(np.int32) + top * len(self.view.hosts)
        return self.view.host_order(index) if fallback else index

    def segment_index(self, nodes: Sequence[str]) -> np.ndarray:
        """A segment's whole pool as flat pair indices in pool order."""
        return self.pool_index(*self.segment_mask(nodes))

    def pairs_for_segment(self, nodes: Sequence[str]) -> list[tuple[str, str]]:
        """:meth:`segment_index` as name tuples, in pool order."""
        return self.view.pairs_from_index(self.segment_index(nodes))

    def draw_pair(self, index: np.ndarray, rng) -> tuple[str, str]:
        """One pair of a pool, drawn by position and only then named.

        ``choice(range(n))`` consumes the stream exactly as ``choice`` over
        the ``n`` name tuples would, and refuses an empty pool with the same
        ``IndexError``.
        """
        return self.view.pair_names(index[rng.choice(range(len(index)))])

    def sample_pair(
        self,
        nodes: Sequence[str],
        rng,
        avoid: Sequence[tuple[str, str]] = (),
    ) -> tuple[str, str]:
        """Draw a plausible pair for a segment, avoiding listed pairs when
        alternatives exist (used to keep decoys distinct from real draws)."""
        if not avoid:
            return self.draw_pair(self.segment_index(nodes), rng)
        pool = self.pairs_for_segment(nodes)
        avoid_set = set(avoid)
        preferred = [p for p in pool if p not in avoid_set]
        return rng.choice(preferred if preferred else pool)

    def is_plausible(self, u: str, v: str, src_host: str, dst_host: str) -> bool:
        """True if the pair is plausible on directed link u→v (unknown hosts
        are implausible)."""
        return (src_host, dst_host) in self.plausible_pairs(u, v)
