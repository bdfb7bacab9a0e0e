"""Reference for the routing view's equal-cost path enumeration.

The depth-first search ``TopologyView.equal_cost_paths`` ran before it kept
a per-source predecessor map: a stack of partial paths grown back from the
destination, every step re-scanning the head's adjacency for neighbours one
hop nearer the source (switches, or the source itself), stopped at the
view's path cap and sorted.  It reads the view's *current* distances and
graph, so it is the oracle for a healthy or a degraded fabric alike.
"""

from repro.net.graph import NoPathError


def equal_cost_paths(view, src, dst):
    """All shortest routing paths ``src`` -> ``dst`` up to the cap, sorted;
    ``NoPathError`` if ``dst`` is unreachable."""
    d_src = view.dist[src]
    if dst not in d_src:
        raise NoPathError(f"no routing path {src} -> {dst}")
    adj = view.graph.adj
    paths: list[list[str]] = []
    stack: list[list[str]] = [[dst]]
    while stack and len(paths) < view.max_equal_cost_paths:
        partial = stack.pop()
        head = partial[0]
        if head == src:
            paths.append(partial)
            continue
        for u in adj[head]:
            if u in d_src and d_src[u] + 1 == d_src[head]:
                if u == src or u in view._switches:
                    stack.append([u] + partial)
    paths.sort()
    return paths
