"""A segment's pool as one geodesic compare, against the per-link
intersection it replaced.

For a walk n0…nk whose interior is switches, "every link lies on some
shortest a→b path" is ``d(a, n0) + k + d(nk, b) == d(a, b)``
(docs/architecture.md).  ``AddressRestrictions.segment_index`` evaluates
that compare on the view's current distances; the oracle
(``plausibility_oracle.oracle_segment_index``) intersects the per-link sets
link by link.  Same pool element for element and in the same order, on
healthy and degraded fabrics, for shortest-path cuts, detours, bounces and
single nodes — and a pinned source narrows to the same pairs.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st
from plausibility_oracle import oracle_segment_index

from repro.core.restrictions import AddressRestrictions
from repro.net import Topology, bcube, fat_tree, leaf_spine, linear
from repro.sdn import TopologyView


def odd_ring(switches=5, hosts_per_switch=2):
    """A ring of an odd number of switches: unlike the built fabrics it is
    not bipartite, so a walk can be exactly one hop longer than a shortest
    path."""
    topo = Topology("odd_ring")
    ring = [topo.add_switch(f"s{i}") for i in range(switches)]
    for i, switch in enumerate(ring):
        topo.add_link(switch, ring[i - 1])
        for j in range(hosts_per_switch):
            topo.add_link(topo.add_host(f"h{i * hosts_per_switch + j + 1}"), switch)
    return topo


FABRICS = {
    "fat_tree4": lambda: fat_tree(4),
    "fat_tree6": lambda: fat_tree(6),
    "fat_tree8": lambda: fat_tree(8),
    "leaf_spine": leaf_spine,
    "bcube": bcube,
    "linear": linear,
    "odd_ring": odd_ring,
}


@functools.lru_cache(maxsize=None)
def topology(name):
    """One topology per fabric: a view copies the graph, never writes it."""
    return FABRICS[name]()


@st.composite
def walk(draw, view):
    """A walk on the view's current links: start anywhere, step to any
    neighbour (back the way it came too), stop at a host; zero steps is a
    single node."""
    nodes = sorted(view.graph.nodes)
    at = draw(st.sampled_from(nodes))
    out = [at]
    for _ in range(draw(st.integers(0, 7))):
        if len(out) > 1 and at not in view._switches:
            break  # a host ends the walk: hosts never relay
        near = sorted(view.graph.neighbors(at))
        if not near:
            break
        at = draw(st.sampled_from(near))
        out.append(at)
    return out


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(FABRICS)),
    events=st.lists(
        st.tuples(st.integers(0, 10**6), st.booleans()), max_size=3
    ),
    data=st.data(),
)
def test_geodesic_pool_equals_the_per_link_intersection(name, events, data):
    topo = topology(name)
    view = TopologyView(topo)
    edges = list(topo.graph.edges)
    for pick, up in events:  # failures and repairs, repeats allowed
        view.set_link_state(*edges[pick % len(edges)], up=up)
    restrictions = AddressRestrictions(view)
    hosts = len(view.hosts)
    for _ in range(4):
        nodes = data.draw(walk(view))
        expected = oracle_segment_index(view, nodes)
        pool = restrictions.segment_index(nodes)
        assert pool.dtype == np.int32
        assert pool.tolist() == expected.tolist(), nodes
        # A pinned source: whatever comes back, narrowing it to that source
        # (relaxed if nothing is left) keeps what narrowing the pool keeps.
        sources = sorted(set((expected // hosts).tolist())) or [-1]
        src = data.draw(st.sampled_from(sources) | st.integers(-1, hosts - 1))
        pinned = restrictions.pool_index(restrictions.segment_mask(nodes, src))
        assert _narrow(pinned, src, hosts) == _narrow(expected, src, hosts)


def _narrow(pool, src, hosts):
    row = pool[pool // hosts == src]
    return (row if row.size else pool).tolist()
