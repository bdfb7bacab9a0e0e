"""Brute-force reference for the per-link plausibility index.

The all-pairs scan the Mimic Controller used to run in ``src/``: evaluate
``dist[a][u] + 1 + dist[v][b] == dist[a][b]`` for every ordered host pair.
It reads the view's *current* ``dist``, so it is the oracle for a freshly
computed link set, healthy or degraded.
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


def directed_links(topo):
    """Both directions of every link, in graph order."""
    return [d for u, v in topo.graph.edges for d in ((u, v), (v, u))]
