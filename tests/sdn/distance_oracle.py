"""Reference for the routing view's all-pairs distances.

The search ``TopologyView`` ran in ``src/`` before it kept one matrix: an
absorbing breadth-first search per node — a host starts or ends a path and
never relays it — into a dict of dicts, and the per-node loops that turned
those dicts into the host-distance arrays.  It reads the view's *current*
graph, so it is the oracle for a healthy or a degraded fabric alike.
"""

import numpy as np

FAR = 1 << 20  # the view's "no route", restated: the arrays are compared bit for bit


def absorbing_bfs(view, source):
    """``{node: hops}`` from ``source``, in discovery order, unreachable
    nodes absent."""
    switches = view._switches
    adj = view.graph.adj
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            if u != source and u not in switches:
                continue  # hosts terminate paths, they don't relay
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def oracle_dist(view):
    """The whole ``name -> {name: hops}`` table, one search per node."""
    return {n: absorbing_bfs(view, n) for n in view.graph.nodes}


def oracle_to_hosts(view, dist):
    """``node -> int32 distances to every host``, hosts by name rank."""
    ranked = sorted(view.hosts)
    return {
        n: np.array([d.get(h, FAR) for h in ranked], dtype=np.int32)
        for n, d in dist.items()
    }


def oracle_host_dist(view, to_hosts):
    """The rank x rank host-distance matrix (0 x 0 on a hostless fabric)."""
    ranked = sorted(view.hosts)
    return np.array(
        [to_hosts[h] for h in ranked], dtype=np.int32
    ).reshape(len(ranked), len(ranked))


def oracle_rebuild(view):
    """``(dist, to_hosts, host_dist)``: all a rebuild used to compute."""
    dist = oracle_dist(view)
    to_hosts = oracle_to_hosts(view, dist)
    return dist, to_hosts, oracle_host_dist(view, to_hosts)


def oracle_pair_index(to_hosts, host_dist, u, v):
    """``plausible_pair_index(u, v)`` over the oracle's arrays."""
    on_path = to_hosts[u][:, None] + 1 + to_hosts[v][None, :] == host_dist
    return np.flatnonzero(on_path).astype(np.int32)
