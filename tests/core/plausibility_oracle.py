"""Brute-force reference for the per-link plausibility index and the draw.

The all-pairs scan the Mimic Controller used to run in ``src/``: evaluate
``dist[a][u] + 1 + dist[v][b] == dist[a][b]`` for every ordered host pair.
It reads the view's *current* ``dist``, so it is the oracle for a freshly
computed link set, healthy or degraded.  :func:`oracle_narrow` is the
list-building pool narrowing ``Strategy.draw_segment`` ran before it
narrowed and drew on the index array.
"""


def oracle_pairs(view, u, v):
    """Plausible (a, b) on directed link u→v, in ``Topology.hosts()`` order."""
    dist = view.dist
    hosts = view.topo.hosts()
    pairs = []
    for a in hosts:
        for b in hosts:
            if a == b:
                continue
            try:
                if dist[a][u] + 1 + dist[v][b] == dist[a][b]:
                    pairs.append((a, b))
            except KeyError:
                pass  # a leg that does not exist is on no path
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
