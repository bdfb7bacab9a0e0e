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

from typing import NamedTuple, Sequence

import numpy as np

from ..sdn.discovery import TopologyView

__all__ = ["AddressRestrictions", "SegmentPool"]


class SegmentPool(NamedTuple):
    """A segment's (narrowed) pool, never listed: the host-rank pairs
    ``(top + i, left + j)`` for which ``mask[i, j]`` is set, ``size`` of
    them.  ``mask`` is the smallest view that holds them — the whole
    ``H x H`` mask, a source's row, a destination's column or one pair.
    Pool order is ascending flat index ``rank(a) * H + rank(b)``, or
    ``hosts()`` order for a fallback."""

    mask: np.ndarray
    top: int
    left: int
    fallback: bool
    size: int


class AddressRestrictions:
    """Plausible (src_host, dst_host) pools per directed link / segment.

    A segment's pool is a boolean mask over host ranks, counted
    (:meth:`segment_mask`, a :class:`SegmentPool`), read from the routing
    view's *current* distances at every call, so pools follow link events.
    The Mimic Controller narrows it, draws a position from its size and
    names only the pair there (:meth:`draw_pair`); :meth:`pool_index` and
    the list-returning methods are materialising views for tests, oracles
    and analyses.
    """

    def __init__(self, view: TopologyView):
        self.view = view

    def plausible_pairs(self, u: str, v: str) -> list[tuple[str, str]]:
        """Host pairs for which u→v is on a shortest path, in ``hosts()``
        order."""
        return self.view.plausible_host_pairs(u, v)

    def segment_mask(
        self, nodes: Sequence[str], src_rank: int = -1, dst_rank: int = -1
    ) -> SegmentPool:
        """The pool of a node segment — pairs plausible on *every* directed
        link, :meth:`TopologyView.on_geodesic` — narrowed to a pinned
        source's row (``src_rank >= 0``) and a pinned destination's column
        (``dst_rank >= 0``).  When the compare is empty (stretched bounce
        walks traverse link sequences no shortest path uses) the pool is
        the first link's set, then the all-pairs universe — a sampled
        address is always a real host pair.

        The source rule comes first and each rule is kept only if a pair
        survives it.  Each is decided on the smallest view that decides it
        — the pinned pair, the source's row, the destination's column, and
        the whole compare only when they are all empty — so a pinned draw
        never evaluates the ``H x H`` mask it would discard.  The count
        that says a view is empty is the pool's size.
        """
        view = self.view
        if len(nodes) > 1:
            if src_rank >= 0:
                if dst_rank >= 0 and view.on_geodesic(nodes, src_rank, dst_rank):
                    return SegmentPool(np.ones((1, 1), dtype=bool), src_rank, dst_rank, False, 1)
                row = view.on_geodesic(nodes, src_rank)
                size = np.count_nonzero(row)
                if size:
                    return SegmentPool(row[None, :], src_rank, 0, False, size)
            if dst_rank >= 0:
                column = view.on_geodesic(nodes, dst_rank=dst_rank)
                size = np.count_nonzero(column)
                if size:
                    return SegmentPool(column[:, None], 0, dst_rank, False, size)
            mask = view.on_geodesic(nodes)
            size = np.count_nonzero(mask)
            if size:
                return SegmentPool(mask, 0, 0, False, size)
            mask = view.on_geodesic(nodes[:2])
            if not np.count_nonzero(mask):
                mask = ~np.eye(len(view.hosts), dtype=bool)
        else:
            mask = ~np.eye(len(view.hosts), dtype=bool)
        top = left = 0
        if src_rank >= 0 and np.count_nonzero(mask[src_rank]):
            mask, top = mask[src_rank : src_rank + 1], src_rank
        if dst_rank >= 0 and np.count_nonzero(mask[:, dst_rank]):
            mask, left = mask[:, dst_rank : dst_rank + 1], dst_rank
        return SegmentPool(mask, top, left, True, np.count_nonzero(mask))

    def pool_index(self, pool: SegmentPool) -> np.ndarray:
        """A pool as flat pair indices (int32) in pool order: ascending,
        which is the ``sorted()`` order of the name tuples — or, for a
        fallback, ``hosts()`` order."""
        rows, cols = np.divmod(pool.mask.ravel().nonzero()[0], pool.mask.shape[1])
        index = ((rows + pool.top) * len(self.view.hosts) + cols + pool.left).astype(np.int32)
        return self.view.host_order(index) if pool.fallback else index

    def segment_index(self, nodes: Sequence[str]) -> np.ndarray:
        """A segment's whole pool as flat pair indices in pool order."""
        return self.pool_index(self.segment_mask(nodes))

    def pairs_for_segment(self, nodes: Sequence[str]) -> list[tuple[str, str]]:
        """:meth:`segment_index` as name tuples, in pool order."""
        return self.view.pairs_from_index(self.segment_index(nodes))

    def draw_pair(self, pool: SegmentPool, rng) -> tuple[str, str]:
        """One pair of a pool, drawn by position and only then located and
        named.

        ``choice(range(size))`` consumes the stream exactly as ``choice``
        over the ``size`` name tuples would, and refuses an empty pool with
        the same ``IndexError``.  Only a fallback, whose order is not its
        mask's, is listed to find the pair.
        """
        i = rng.choice(range(pool.size))
        if pool.fallback:
            return self.view.pair_names(self.pool_index(pool)[i])
        mask = pool.mask
        row, col = divmod(int(mask.ravel().nonzero()[0][i]), mask.shape[1])
        return self.view.pair_names((pool.top + row) * len(self.view.hosts) + pool.left + col)

    def sample_pair(
        self,
        nodes: Sequence[str],
        rng,
        avoid: Sequence[tuple[str, str]] = (),
    ) -> tuple[str, str]:
        """Draw a plausible pair for a segment, avoiding listed pairs when
        alternatives exist (used to keep decoys distinct from real draws)."""
        if not avoid:
            return self.draw_pair(self.segment_mask(nodes), rng)
        pool = self.pairs_for_segment(nodes)
        avoid_set = set(avoid)
        preferred = [p for p in pool if p not in avoid_set]
        return rng.choice(preferred if preferred else pool)

    def is_plausible(self, u: str, v: str, src_host: str, dst_host: str) -> bool:
        """True if the pair is plausible on directed link u→v (unknown hosts
        are implausible)."""
        return (src_host, dst_host) in self.plausible_pairs(u, v)
