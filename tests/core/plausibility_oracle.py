"""Brute-force reference for the per-link plausibility index and the draw.

The all-pairs scan the Mimic Controller used to run in ``src/``: evaluate
``dist[a][u] + 1 + dist[v][b] == dist[a][b]`` for every ordered host pair.
It reads the view's *current* ``dist``, so it is the oracle for a freshly
computed link set, healthy or degraded.  :func:`oracle_narrow` is the
list-building pool narrowing ``Strategy.draw_segment`` ran before it
narrowed and drew on the index array.  :func:`oracle_segment_index` is the
per-link intersection ``AddressRestrictions`` ran before a segment's pool
became one geodesic compare, minus its caches.
"""

import numpy as np


def oracle_pairs(view, u, v):
    """Plausible (a, b) on directed link u→v, in ``Topology.hosts()`` order."""
    dist = view.dist
    hosts = view.topo.hosts()
    pairs = []
    # each row read once; a leg that does not exist is on no path
    from_v = dist.get(v)
    if from_v is None:
        return pairs
    for a in hosts:
        from_a = dist.get(a)
        if from_a is None or u not in from_a:
            continue
        to_u = from_a[u] + 1
        for b in hosts:
            if b != a and b in from_v and b in from_a and to_u + from_v[b] == from_a[b]:
                pairs.append((a, b))
    return pairs


def oracle_segment(view, nodes):
    """``pairs_for_segment`` as first written: intersect link by link, stop
    at the first empty intersection, ``sorted()`` pool, then the fallbacks
    (first link's list, then the universe) in ``hosts()`` order."""
    hosts = view.topo.hosts()
    universe = [(a, b) for a in hosts for b in hosts if a != b]
    links = list(zip(nodes, nodes[1:]))
    if not links:
        return universe
    common = None
    for u, v in links:
        pairs = set(oracle_pairs(view, u, v))
        common = pairs if common is None else common & pairs
        if not common:
            break
    if common:
        return sorted(common)
    return oracle_pairs(view, *links[0]) or universe


#: a leg with no route: past every path length, so no sum of legs equals it
#: and no unreachable pair's distance equals a sum of two finite legs
FAR = 1 << 20


def oracle_link_index(view, u, v):
    """``plausible_pair_index(u, v)`` from the view's public ``dist``: the
    sorted flat indices ``rank(a) * H + rank(b)`` (hosts ranked by name) of
    every pair with ``d(a, u) + 1 + d(v, b) == d(a, b)``."""
    dist = view.dist
    if u not in dist or v not in dist:
        return np.empty(0, dtype=np.int32)
    ranked = sorted(view.hosts)

    def legs(row):
        return np.array([row.get(h, FAR) for h in ranked], dtype=np.int64)

    host_dist = np.array(
        [legs(dist[a]) for a in ranked], dtype=np.int64
    ).reshape(len(ranked), len(ranked))
    on_path = legs(dist[u])[:, None] + 1 + legs(dist[v])[None, :] == host_dist
    return np.flatnonzero(on_path).astype(np.int32)


def oracle_universe(view):
    """Every ordered pair of distinct hosts, in ``hosts()`` order."""
    off_diagonal = ~np.eye(len(view.hosts), dtype=bool)
    return view.host_order(np.flatnonzero(off_diagonal).astype(np.int32))


def oracle_segment_index(view, nodes):
    """``segment_index`` as the per-link intersection: link sets intersected
    in order, stopping at the first empty intersection, then the fallbacks
    (first link's set, then the universe) in ``hosts()`` order."""
    links = list(zip(nodes, nodes[1:]))
    if not links:
        return oracle_universe(view)
    first = common = oracle_link_index(view, *links[0])
    for u, v in links[1:]:
        if not common.size:
            break
        # Both are sorted and unique: one binary-search membership pass
        # of the shorter through the longer — never empty, ``common``
        # is not.  A slot past the end wraps to slot 0, whose value the
        # searched one exceeds.
        few, many = sorted((common, oracle_link_index(view, u, v)), key=len)
        at = many.searchsorted(few)
        at[at == many.size] = 0
        common = few[many[at] == few]
    if common.size:
        return common
    return view.host_order(first) if first.size else oracle_universe(view)


def oracle_narrow(pool, ip_to_host, pin_src, pin_dst, endpoints=()):
    """``draw_segment``'s narrowing as first written: up to three filtered
    copies of the name-tuple pool (source pin, destination pin, the
    never-name-a-real-endpoint ban on unpinned sides), each kept only if
    something survives it.  The draw was ``rng.choice`` of the result."""
    if pin_src is not None:
        src_host = ip_to_host.get(pin_src)
        narrowed = [p for p in pool if p[0] == src_host]
        pool = narrowed or pool
    if pin_dst is not None:
        dst_host = ip_to_host.get(pin_dst)
        narrowed = [p for p in pool if p[1] == dst_host]
        pool = narrowed or pool
    if endpoints:
        banned = set(endpoints)
        strict = [
            p
            for p in pool
            if (pin_src is not None or p[0] not in banned)
            and (pin_dst is not None or p[1] not in banned)
        ]
        pool = strict or pool
    return pool


def directed_links(topo):
    """Both directions of every link, in graph order."""
    return [d for u, v in topo.graph.edges for d in ((u, v), (v, u))]
