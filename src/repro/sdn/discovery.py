"""Controller-side global network view and failure detection.

The MC "obtains the global view of the network and calculates all-pairs
equal-cost shortest paths when initiation" (Sec IV-B2).  :class:`TopologyView`
is that database: shortest-path distances, equal-cost path enumeration
between host pairs, the is-this-link-on-a-shortest-path predicate and the
vectorised walk-segment plausibility compare the m-address restrictions are
built on.

:class:`FailureDetector` models *how soon* the controller learns about a
data-plane state change.  Port-status and chassis events do not reach the
control plane instantly: OpenFlow port-status messages ride the control
channel, and crash detection typically waits for missed echo/heartbeat
rounds.  The detector turns a raw network event into a delayed controller
callback, with an explicit zero-latency mode that is byte-identical to the
oracle wiring the controller used before.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from itertools import zip_longest
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..net.graph import NoPathError, simple_paths
from ..net.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

__all__ = ["FailureDetector", "TopologyView"]

#: "No route" in the plausibility arrays: far above any real distance, so a
#: sum with an unreachable leg never equals a host-to-host distance and an
#: unreachable host pair never equals a real sum.
_FAR = 1 << 20
#: "No route" from a node in :meth:`TopologyView.on_geodesic`'s int16 copies:
#: above any distance in a view of at most this many nodes, and two fit in one.
_FAR16 = 1 << 13


class FailureDetector:
    """Delays data-plane state changes on their way to the controller.

    Parameters
    ----------
    sim:
        The simulator events are scheduled on.
    latency_s:
        Fixed delay between the physical event and the controller noticing
        it (port-status propagation, processing).  0 (the default) with no
        heartbeat means *immediate*: the callback runs synchronously, which
        keeps the no-faults control plane byte-identical to the old direct
        wiring.
    heartbeat_period_s:
        When set, detection additionally waits for the next heartbeat round:
        the event is noticed at the first multiple of the period *strictly
        after* it happened, plus ``latency_s``.  Models echo-request-based
        liveness checking where a crash surfaces only when a beat goes
        unanswered.
    """

    def __init__(
        self,
        sim: "Simulator",
        latency_s: float = 0.0,
        heartbeat_period_s: float | None = None,
    ):
        if not 0.0 <= latency_s < math.inf:  # nan included
            raise ValueError(f"latency_s {latency_s} must be finite and >= 0")
        if heartbeat_period_s is not None and heartbeat_period_s <= 0.0:
            raise ValueError(
                f"heartbeat_period_s {heartbeat_period_s} must be > 0"
            )
        self.sim = sim
        self.latency_s = latency_s
        self.heartbeat_period_s = heartbeat_period_s
        self.events_delivered = 0

    @property
    def immediate(self) -> bool:
        """True when detection is synchronous (no latency, no heartbeat)."""
        return self.latency_s == 0.0 and self.heartbeat_period_s is None

    def detection_delay(self) -> float:
        """Seconds from now until the controller would notice an event."""
        delay = self.latency_s
        period = self.heartbeat_period_s
        if period is not None:
            now = self.sim.now
            # A beat within 1e-9 periods of now *is* now: 0.3 / 0.1 rounds
            # to 2.999..., and the beat at 0.3 must not be the "next" one.
            beats = math.floor(now / period + 1e-9) + 1
            delay += beats * period - now
        return delay

    def deliver(self, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` when the controller would learn of the event.

        Immediate mode calls synchronously — no event is scheduled, so the
        heap order (and therefore every downstream trace) is untouched
        relative to the pre-detector oracle wiring.
        """
        self.events_delivered += 1
        if self.immediate:
            fn(*args)
        else:
            self.sim.call_later(self.detection_delay(), fn, *args)


def _by_slot(rows: list[list[int]], pad: int) -> np.ndarray:
    """Ragged index lists, transposed: row ``k`` holds every list's ``k``-th
    entry, ``pad`` where the list is shorter.  Never fewer than one row."""
    slots = list(zip_longest(*rows, fillvalue=pad)) or [(pad,) * len(rows)]
    return np.array(slots, dtype=np.intp)


def _core_distances(nbrs: np.ndarray) -> np.ndarray:
    """Hop counts among ``S`` switches from their neighbours by slot
    (``degree x S``, ``S`` where a switch has fewer), as an int32
    ``(S + 1) x (S + 1)`` array whose last row and column are ``_FAR``.

    Level-synchronous: every switch's frontier advances one hop per pass,
    and a pass is one gather of the neighbours' frontiers — boolean, so no
    count can overflow and no BLAS is woken for an 80-row product.  The
    gather holds ``degree x S x S`` bytes (1.6 MB on ``fat_tree(16)``).
    """
    size = nbrs.shape[1]
    hops = np.full((size + 1, size + 1), _FAR, dtype=np.int32)
    inner = hops[:size, :size]
    frontier = np.zeros((size + 1, size), dtype=bool)  # last row: never set
    live = frontier[:size]
    np.fill_diagonal(live, True)
    reached = live.copy()
    level = 0
    while live.any():
        inner[live] = level
        level += 1
        ahead = frontier[nbrs].any(axis=0)
        ahead &= ~reached
        reached |= ahead
        live[:] = ahead
    return hops


def _one_beyond(table: np.ndarray, slots: np.ndarray, beyond: np.ndarray) -> np.ndarray:
    """``out[x] = beyond[x] + min(table[a] for a in slots[:, x])``: one row
    gather per slot, the minimum taken in place."""
    out = table[slots[0]]
    for slot in slots[1:]:
        np.minimum(out, table[slot], out=out)
    out += beyond
    return out


class _DistanceRows(Mapping):
    """``name -> {name: hops}`` over the distance matrix.  A row becomes a
    dict the first time it is read — keys in graph node order, unreachable
    nodes absent — and an unknown name is a ``KeyError``."""

    def __init__(self, names: np.ndarray, index: dict[str, int], matrix: np.ndarray):
        self._names = names
        self._index = index
        self._matrix = matrix
        self._rows: dict[str, dict[str, int]] = {}

    def __getitem__(self, name: str) -> dict[str, int]:
        row = self._rows.get(name)
        if row is None:
            hops = self._matrix[self._index[name]]
            near = np.flatnonzero(hops < _FAR)
            row = self._rows[name] = dict(
                zip(self._names[near].tolist(), hops[near].tolist())
            )
        return row

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class TopologyView:
    """Read-only graph queries over a :class:`Topology`."""

    def __init__(self, topo: Topology, max_equal_cost_paths: int = 16):
        if not (isinstance(max_equal_cost_paths, int) and max_equal_cost_paths >= 1):
            raise ValueError(f"max_equal_cost_paths {max_equal_cost_paths} must be >= 1 and an int")
        if len(topo.graph) > _FAR16:
            raise ValueError(f"{topo.name} has more than {_FAR16} nodes")
        self.topo = topo
        # The controller's own copy of the graph: link failures mutate this
        # routing view without touching the physical topology description.
        self.graph = topo.graph.copy()
        self.max_equal_cost_paths = max_equal_cost_paths
        # Link events change edges, never nodes: kinds are resolved once.
        #: host names in ``Topology.hosts()`` (insertion) order
        self.hosts: tuple[str, ...] = tuple(topo.hosts())
        self._switches = frozenset(topo.switches())
        # Host pairs are indexed by *lexicographic* rank, so an ascending
        # flat index ``rank(a) * H + rank(b)`` is the ``sorted()`` order of
        # the name tuples (``h10`` sorts before ``h2``); ``_host_pos`` maps
        # a rank back to its position in ``hosts``.
        ranked = sorted(self.hosts)
        self._rank = {h: i for i, h in enumerate(ranked)}
        self._ranked_names = np.array(ranked, dtype=object)
        position = {h: i for i, h in enumerate(self.hosts)}
        self._host_pos = np.array(
            [position[h] for h in ranked], dtype=np.int32
        )
        # Matrix layout, fixed for the view's life: a row and a column per
        # node in graph order; ``_core`` is a switch's row in the S x S core
        # and ``_beyond`` the hop a host adds at its end of a path.
        self._index = {n: i for i, n in enumerate(self.graph.nodes)}
        self._names = np.array(list(self._index), dtype=object)
        self._core = {
            n: i for i, n in enumerate(n for n in self._index if n in self._switches)
        }
        self._beyond = np.array(
            [n not in self._core for n in self._index], dtype=np.int32
        )[:, None]
        self._ranked_cols = np.array(
            [self._index[h] for h in ranked], dtype=np.intp
        )
        self._path_cache: dict[tuple[str, str], list[list[str]]] = {}
        self._nearer: dict[str, tuple] = {}  # source -> (distances, predecessor map)
        self._rebuild_distances()

    def _rebuild_distances(self) -> None:
        """All-pairs *routing* distances, computed eagerly (the paper's "when
        initiation") into one int32 ``N x N`` matrix in graph node order.

        Hosts are absorbing: a path may start or end at a host but never
        relay through one — in server-centric fabrics like BCube the plain
        graph metric would happily shortcut through servers, which switches
        cannot do.  So only the switch-induced subgraph is searched
        (:func:`_core_distances`), and a host is one hop beyond the nearest
        of its switch neighbours, ``d(h, x) = 1 + min d(n, x)``, taken once
        for the rows and once for the columns (:func:`_one_beyond`).  With a
        switch attached to itself at no hop that is one formula for every
        node.  A host-host link is 1, self is 0, unreachable is ``_FAR``.
        """
        index, core, adj = self._index, self._core, self.graph.adj
        pad = len(core)  # the core row no switch has: ``_FAR`` from everything
        switch_nbrs: list[list[int]] = []
        attach: list[list[int]] = []  # per node, the core rows it hangs off
        host_links: list[tuple[int, int]] = []
        for u, i in index.items():
            nbrs = adj[u]
            near = [core[v] for v in nbrs if v in core]
            if u in core:
                switch_nbrs.append(near)
                attach.append([core[u]])
            else:
                attach.append(near)
                if len(near) < len(nbrs):
                    host_links += [(i, index[v]) for v in nbrs if v not in core]
        slots, beyond = _by_slot(attach, pad), self._beyond
        hops = _core_distances(_by_slot(switch_nbrs, pad))
        to_core = _one_beyond(hops, slots, beyond)  # N x (S + 1)
        matrix = _one_beyond(np.ascontiguousarray(to_core.T), slots, beyond)
        np.minimum(matrix, _FAR, out=matrix)
        for i, j in host_links:
            matrix[i, j] = 1
        np.fill_diagonal(matrix, 0)

        #: ``name -> {name: hops}``, unreachable nodes absent: one object
        #: until the next rebuild, a row named from the matrix on first read
        self.dist: Mapping[str, dict[str, int]] = _DistanceRows(
            self._names, index, matrix
        )
        self._path_cache.clear()
        self._nearer.clear()
        # Distance from every node to every host, hosts in rank order.  The
        # graph is undirected, so a row is also "from every host to the node".
        to_hosts = matrix[:, self._ranked_cols]
        self._host_dist = to_hosts[self._ranked_cols]
        # int16 copies for :meth:`on_geodesic` (half the int32 compare's time),
        # cast as written; between hosts "no route" is -1, which no sum equals.
        self._geo_to_hosts = np.empty(to_hosts.shape, np.int16)
        np.minimum(to_hosts, _FAR16, out=self._geo_to_hosts, casting="unsafe")
        geo = self._geo_host_dist = self._host_dist.astype(np.int16)
        geo[self._host_dist == _FAR] = -1

    def set_link_state(self, u: str, v: str, up: bool) -> None:
        """Apply a port-status event to the routing view and recompute.

        ``ValueError`` if the topology has no such link; an event the view
        already reflects changes nothing and recomputes nothing.
        """
        if not self.topo.graph.has_edge(u, v):
            raise ValueError(f"{u!r}-{v!r} is not a link of {self.topo.name}")
        if self.graph.has_edge(u, v) == up:
            return
        if up:
            self.graph.add_edge(u, v)
        else:
            self.graph.remove_edge(u, v)
        self._rebuild_distances()

    # ------------------------------------------------------------------
    def distance(self, a: str, b: str) -> int:
        """Routing hop distance between two nodes."""
        return self.dist[a][b]

    def equal_cost_paths(self, src: str, dst: str) -> list[list[str]]:
        """All shortest routing paths between two nodes (up to the cap).

        Enumerated over the absorbing-host metric: interiors are switches.
        A depth-first walk back from ``dst`` over ``src``'s predecessor map:
        per node, its neighbours one hop nearer ``src`` that may relay
        (switches, or ``src``), in adjacency order — filled the first time
        a walk from ``src`` reaches the node, kept until the next link
        event.  A node's distance from ``src`` is its slot in one path
        buffer, copied once per path found.
        """
        paths = self._path_cache.get((src, dst))
        if paths is None:
            if src not in self._nearer:
                self._nearer[src] = (self.dist[src], {})
            d_src, nearer = self._nearer[src]
            if dst not in d_src:
                raise NoPathError(f"no routing path {src} -> {dst}")
            adj, switches = self.graph.adj, self._switches
            paths, walk, stack = [], [src] * (d_src[dst] + 1), [dst]
            while stack and len(paths) < self.max_equal_cost_paths:
                head = stack.pop()
                hops = d_src[head]
                walk[hops] = head
                if hops <= 1:  # only src is nearer, and it already fills slot 0
                    paths.append(walk[:])
                    continue
                step = nearer.get(head)
                if step is None:  # a plain loop: a comprehension is a profiled call
                    nearer[head] = step = []
                    for u in adj[head]:
                        if d_src.get(u) == hops - 1 and (u == src or u in switches):
                            step.append(u)
                stack.extend(step)
            paths.sort()
            self._path_cache[(src, dst)] = paths
        return paths

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """One shortest routing path (the first equal-cost one), as a list
        the caller owns."""
        return list(self.equal_cost_paths(src, dst)[0])

    def pick_path(self, src: str, dst: str, rng) -> list[str]:
        """A random member of the equal-cost shortest-path set, as a list
        the caller owns (the cached set is shared by every query)."""
        return list(rng.choice(self.equal_cost_paths(src, dst)))

    # ------------------------------------------------------------------
    def paths_with_min_switches(
        self, src: str, dst: str, min_switches: int, rng
    ) -> list[str]:
        """A path between two hosts containing at least ``min_switches``
        switch nodes.

        The MC needs this when the requested MN count exceeds the shortest
        path length (Sec IV-B2: "If the path length is less than N, a new
        forwarding path with length larger than N will be calculated").

        Simple detours are preferred; when none exists (e.g. two hosts under
        the same edge switch, whose edge switch is the only way in or out),
        the path is stretched with *bounce walks* that revisit a switch.
        Revisits are routable because flow rules also match ``in_port``, so
        the two traversals of the same switch are distinguishable.
        """
        shortest = self.pick_path(src, dst, rng)
        if self._switch_count(shortest) >= min_switches:
            return shortest
        # Look for modestly longer simple paths first.
        base = self.distance(src, dst)
        for cutoff in range(base + 1, base + 5):
            candidates = [
                p
                for p in simple_paths(self.graph, src, dst, cutoff)
                if self._switch_count(p) >= min_switches and self._interior_is_switches(p)
            ]
            if candidates:
                best_len = min(len(p) for p in candidates)
                return rng.choice([p for p in candidates if len(p) == best_len])
        # Fall back to bounce-stretching the shortest path.
        adj = self.graph.adj
        walk = shortest
        visits = self._switch_count(walk)
        guard = 0
        while visits < min_switches:
            guard += 1
            if guard > min_switches + 8:  # pragma: no cover - defensive
                break
            # A bounce inserts the directed edges walk[i]→t and t→walk[i].
            # Neither may already be on the walk: rules match ⟨in_port,
            # addresses⟩, and a repeated directed edge inside one segment
            # would need two identical matches with different outputs — an
            # unroutable (looping) configuration.
            used_edges = set(zip(walk, walk[1:]))
            candidates = []
            for i in range(1, len(walk) - 1):
                if walk[i] not in self._switches:
                    continue
                for t in adj[walk[i]]:
                    if (
                        t in self._switches
                        and (walk[i], t) not in used_edges
                        and (t, walk[i]) not in used_edges
                    ):
                        candidates.append((i, t))
            if not candidates:
                raise ValueError(
                    f"no path from {src} to {dst} with >= {min_switches} switches"
                )
            i, t = rng.choice(candidates)
            walk = walk[: i + 1] + [t] + walk[i:]
            visits += 2
        return walk

    def _switch_count(self, path: list[str]) -> int:
        return sum(1 for n in path if n in self._switches)

    def _interior_is_switches(self, path: list[str]) -> bool:
        return all(n in self._switches for n in path[1:-1])

    # ------------------------------------------------------------------
    def link_on_shortest_path(self, a: str, b: str, u: str, v: str) -> bool:
        """True iff directed link u→v lies on some shortest a→b path."""
        try:
            return self.dist[a][u] + 1 + self.dist[v][b] == self.dist[a][b]
        except KeyError:
            return False

    def on_geodesic(
        self,
        nodes: Sequence[str],
        src_rank: Optional[int] = None,
        dst_rank: Optional[int] = None,
    ) -> np.ndarray:
        """Which host pairs (a, b) have every link of the walk ``nodes`` on
        some shortest a→b path: booleans by rank, ``H x H`` (sources down,
        destinations across), or row ``src_rank`` alone, or column
        ``dst_rank`` alone, or the one pair when both are given.

        For a walk n0…nk (k >= 1) over the view's links with switches inside
        that is one compare of the *current* distances, ``d(a, n0) + k +
        d(nk, b) == d(a, b)`` (docs/architecture.md has the proof).
        ``a == b`` cannot match: the left side is at least ``k``.  A node
        the view does not know, or one no host can reach, matches nothing.
        """
        head, tail = self._index.get(nodes[0]), self._index.get(nodes[-1])
        rows = slice(None) if src_rank is None else src_rank
        cols = slice(None) if dst_rank is None else dst_rank
        dist = self._geo_host_dist[rows, cols]
        if head is None or tail is None:
            return np.zeros(np.shape(dist), dtype=bool)
        to_hosts = self._geo_to_hosts
        to_head = to_hosts[head, rows]
        if src_rank is None and dst_rank is None:
            to_head = to_head[:, None]
        return to_head + (len(nodes) - 1) + to_hosts[tail, cols] == dist

    def plausible_pair_index(self, u: str, v: str) -> np.ndarray:
        """Host pairs for which directed link u→v is on a shortest path, as
        sorted flat indices ``rank(a) * H + rank(b)`` (int32): the one-link
        walk's :meth:`on_geodesic`."""
        return np.flatnonzero(self.on_geodesic((u, v))).astype(np.int32)

    def host_rank(self, name: Optional[str]) -> int:
        """A host's lexicographic rank — what :meth:`pair_ranks` halves are
        compared against; -1, which no pair carries, if ``name`` is no host."""
        return self._rank.get(name, -1)

    def pair_index(self, a: str, b: str) -> int:
        """Flat index of one named host pair (``KeyError`` if not hosts)."""
        return self._rank[a] * len(self.hosts) + self._rank[b]

    def pair_ranks(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rank(a), rank(b))`` arrays of flat pair indices."""
        return np.divmod(index, len(self.hosts))

    def pair_names(self, pair: int) -> tuple[str, str]:
        """The ``(a, b)`` name tuple of one flat pair index."""
        a, b = divmod(int(pair), len(self.hosts))
        return self._ranked_names[a], self._ranked_names[b]

    def host_order(self, index: np.ndarray) -> np.ndarray:
        """The same flat indices, reordered the way nested loops over
        :attr:`hosts` would visit them (insertion order, not ``sorted()``)."""
        a, b = self.pair_ranks(index)
        visit = self._host_pos[a] * len(self.hosts) + self._host_pos[b]
        return index[np.argsort(visit)]

    def pairs_from_index(self, index: np.ndarray) -> list[tuple[str, str]]:
        """Name tuples for flat pair indices, in the order given."""
        a, b = self.pair_ranks(index)
        names = self._ranked_names
        return list(zip(names[a].tolist(), names[b].tolist()))

    def plausible_host_pairs(self, u: str, v: str) -> list[tuple[str, str]]:
        """Host pairs (a, b) for which directed link u→v is on a shortest
        path — the address-restriction universe for that link (Sec IV-B3's
        per-port source/destination IP restrictions, generalized) — in
        :attr:`hosts` order."""
        return self.pairs_from_index(
            self.host_order(self.plausible_pair_index(u, v))
        )
