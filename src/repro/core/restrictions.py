"""Per-link m-address plausibility restrictions.

Sec IV-B3: "the m_src_ip and m_dst_ip should subject to different
restrictions on different MNs" — e.g. in a fat-tree, packets leaving toward
the core must carry source addresses from the subtree below, or an observer
could tell a fake address from a real one.

We generalize the paper's example to any topology: a pair of real hosts
(a, b) is *plausible* on directed link u→v iff some equal-cost shortest path
from a to b traverses u→v.  An m-address pair drawn from the plausible set
of every link of a segment is indistinguishable from a routed common flow at
every observation point on that segment.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sdn.discovery import TopologyView

__all__ = ["AddressRestrictions"]


class AddressRestrictions:
    """Plausible (src_host, dst_host) sets per directed link / segment.

    A link's set is kept as the view's sorted flat pair-index array
    (:meth:`TopologyView.plausible_pair_index`), a segment's pool as the
    intersection of those arrays in pool order (:meth:`segment_index`).
    The Mimic Controller narrows and draws on that array and names only the
    pair it picks (:meth:`draw_pair`); the list-returning methods are
    materialising views for tests, oracles and analyses.

    Both caches are first-touch snapshots and are **not** invalidated by
    ``set_link_state``: a link first touched while the fabric is degraded
    keeps its degraded set after the repair, one touched before keeps its
    healthy set through the failure (docs/resilience.md, known limits).
    """

    def __init__(self, view: TopologyView):
        self.view = view
        self._link_cache: dict[tuple[str, str], np.ndarray] = {}
        self._segment_cache: dict[tuple[str, ...], np.ndarray] = {}
        self._universe_index: Optional[np.ndarray] = None
        #: cache misses: link sets / segment pools actually computed
        self.links_computed = 0
        self.segments_computed = 0

    def _link_index(self, u: str, v: str) -> np.ndarray:
        key = (u, v)
        index = self._link_cache.get(key)
        if index is None:
            index = self._link_cache[key] = self.view.plausible_pair_index(u, v)
            self.links_computed += 1
        return index

    def plausible_pairs(self, u: str, v: str) -> list[tuple[str, str]]:
        """Host pairs for which u→v is on a shortest path, in ``hosts()``
        order (the index behind the list is cached)."""
        view = self.view
        return view.pairs_from_index(view.host_order(self._link_index(u, v)))

    def segment_index(self, nodes: Sequence[str]) -> np.ndarray:
        """The pool of a node segment — pairs plausible on *every* directed
        link — as flat pair indices in pool order (cached per segment; the
        array is shared, never write to it).

        A non-empty intersection is in ascending index order, which is the
        ``sorted()`` order of the name tuples.  Falls back to the first
        link's set when the intersection is empty (stretched bounce walks
        traverse link sequences no shortest path uses), and to the all-pairs
        universe as a last resort — a sampled address is always a real host
        pair.  Both fallbacks are in ``hosts()`` order.
        """
        key = tuple(nodes)
        index = self._segment_cache.get(key)
        if index is None:
            index = self._segment_cache[key] = self._segment_index(key)
            self.segments_computed += 1
        return index

    def pairs_for_segment(self, nodes: Sequence[str]) -> list[tuple[str, str]]:
        """:meth:`segment_index` as name tuples, in pool order."""
        return self.view.pairs_from_index(self.segment_index(nodes))

    def _segment_index(self, nodes: tuple[str, ...]) -> np.ndarray:
        links = list(zip(nodes, nodes[1:]))
        if not links:
            return self._universe()
        # Stop at the first empty intersection: the links after it stay
        # untouched, so their first touch (and the fabric state it
        # snapshots) happens when it always did.
        first = common = self._link_index(*links[0])
        for u, v in links[1:]:
            if not common.size:
                break
            # Both are sorted and unique: one binary-search membership pass
            # of the shorter through the longer — never empty, ``common``
            # is not.  A slot past the end wraps to slot 0, whose value the
            # searched one exceeds.
            few, many = sorted((common, self._link_index(u, v)), key=len)
            at = many.searchsorted(few)
            at[at == many.size] = 0
            common = few[many[at] == few]
        if common.size:
            return common
        return self.view.host_order(first) if first.size else self._universe()

    def _universe(self) -> np.ndarray:
        """Every ordered pair of distinct hosts, in ``hosts()`` order."""
        if self._universe_index is None:
            off_diagonal = ~np.eye(len(self.view.hosts), dtype=bool)
            self._universe_index = self.view.host_order(
                np.flatnonzero(off_diagonal).astype(np.int32)
            )
        return self._universe_index

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
        """True if the pair is plausible on directed link u→v (a binary
        search of the link's cached index; unknown hosts are implausible)."""
        try:
            pair = self.view.pair_index(src_host, dst_host)
        except KeyError:
            return False
        index = self._link_index(u, v)
        at = int(np.searchsorted(index, pair))
        return at < index.size and int(index[at]) == pair
