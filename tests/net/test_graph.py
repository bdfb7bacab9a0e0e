"""``repro.net.graph`` against networkx, element for element.

Order is behaviour: ``Network`` numbers ports from ``edges``, a flap moves a
neighbour to the end of both adjacency dicts, and the detour search feeds
its enumeration order into ``rng.choice``.  Nothing here states an expected
order by hand — networkx (``graph_oracle``) is the expectation.
"""

import random

import pytest

nx = pytest.importorskip("networkx")

from graph_oracle import built_on_networkx, to_networkx  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.net import Network, bcube, fat_tree, leaf_spine, linear  # noqa: E402
from repro.net.graph import Graph, is_connected, simple_paths  # noqa: E402
from repro.sdn import TopologyView  # noqa: E402

NODES = st.integers(0, 5)
ATTRS = st.dictionaries(st.sampled_from(["kind", "w", "delay_s"]), st.integers(0, 3), max_size=2)
OPS = st.builds(
    # mostly on nodes that exist: some are added, in any order, up front
    lambda first, ops: [("node", *node) for node in first] + ops,
    st.lists(st.tuples(NODES, ATTRS), unique_by=lambda node: node[0]),
    st.lists(
        st.one_of(
            st.tuples(st.just("node"), NODES, ATTRS),
            st.tuples(st.just("edge"), NODES, NODES, ATTRS),
            st.tuples(st.just("edge"), NODES, NODES, ATTRS),
            st.tuples(st.just("remove"), NODES, NODES),
            # a flap: the link leaves and comes back, attributes and all
            st.tuples(st.just("flap"), NODES, NODES),
        ),
        max_size=40,
    ),
)


def apply(ours: Graph, theirs, op) -> None:
    """One mutation on both graphs; where ours is stricter than networkx
    (a name is added once, no endpoint is added on the fly, no self-loops,
    only a link that is there is removed) the refusal is asserted and
    networkx is left alone."""
    kind, *args = op
    if kind == "node":
        node, attrs = args
        if node in ours:
            with pytest.raises(ValueError):
                ours.add_node(node, **attrs)
        else:
            ours.add_node(node, **attrs)
            theirs.add_node(node, **attrs)
    elif kind == "edge":
        u, v, attrs = args
        if u == v:
            with pytest.raises(ValueError):
                ours.add_edge(u, v, **attrs)
        elif u not in ours or v not in ours:
            with pytest.raises(KeyError):
                ours.add_edge(u, v, **attrs)
        else:
            ours.add_edge(u, v, **attrs)
            theirs.add_edge(u, v, **attrs)
    elif not ours.has_edge(*args):
        with pytest.raises(KeyError):
            ours.remove_edge(*args)
    elif kind == "remove":
        ours.remove_edge(*args)
        theirs.remove_edge(*args)
    else:
        attrs = dict(theirs.edges[tuple(args)])
        for graph in (ours, theirs):
            graph.remove_edge(*args)
            graph.add_edge(*args, **attrs)


def assert_same_graph(ours, theirs) -> None:
    assert list(ours.nodes) == list(theirs.nodes)
    assert list(ours.nodes(data=True)) == list(theirs.nodes(data=True))
    assert list(ours.edges) == list(theirs.edges) == list(ours.edges())
    assert list(ours.edges(data=True)) == list(theirs.edges(data=True))
    assert len(ours) == len(theirs) and len(ours.edges) == len(theirs.edges)
    for n in theirs.nodes:
        assert n in ours
        assert ours.nodes[n] == theirs.nodes[n]
        assert list(ours.neighbors(n)) == list(theirs.neighbors(n)) == list(ours.adj[n])
        assert ours.degree(n) == theirs.degree(n)
        for m in theirs.nodes:
            assert ours.has_edge(n, m) == theirs.has_edge(n, m)
    assert not ours.has_edge("ghost", 0) and "ghost" not in ours
    if len(theirs):
        assert is_connected(ours) == nx.is_connected(theirs)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_every_view_equals_networkx_after_every_mutation(ops):
    ours, theirs = Graph(), nx.Graph()
    for op in ops:
        apply(ours, theirs, op)
        assert_same_graph(ours, theirs)


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_simple_paths_enumerates_in_networkx_order(ops):
    ours, theirs = Graph(), nx.Graph()
    for op in ops:
        apply(ours, theirs, op)
    for src in theirs.nodes:
        for dst in theirs.nodes:
            for cutoff in range(1, 7):
                assert list(simple_paths(ours, src, dst, cutoff)) == list(
                    nx.all_simple_paths(theirs, src, dst, cutoff=cutoff)
                ), (src, dst, cutoff)


@settings(max_examples=60, deadline=None)
@given(OPS, OPS)
def test_a_copy_equals_networkx_s_and_is_independent(ops, later):
    ours, theirs = Graph(), nx.Graph()
    for op in ops:
        apply(ours, theirs, op)
    ours_copy, theirs_copy = ours.copy(), theirs.copy()
    assert_same_graph(ours_copy, theirs_copy)
    for op in later:
        apply(ours_copy, theirs_copy, op)
    for attrs in (*ours_copy.nodes.values(), *(e[2] for e in ours_copy.edges(data=True))):
        attrs["scribble"] = True
    assert_same_graph(ours, theirs)  # the source saw none of it


# -- the fabric built on either graph ----------------------------------------

FABRICS = {
    "fat_tree4": (fat_tree, 4),
    "fat_tree8": (fat_tree, 8),
    "bcube": (bcube, 4, 1),
    "leaf_spine": (leaf_spine,),
    "linear": (linear, 3, 2),
}


def fabric_pair(name):
    builder, *args = FABRICS[name]
    return builder(*args), built_on_networkx(builder, *args)


def switch_link(topo):
    """A switch-to-switch link in the middle of the edge list."""
    links = [l for l in topo.graph.edges if not (topo.is_host(l[0]) or topo.is_host(l[1]))]
    return links[len(links) // 2]


def ordered(dist):
    """A distance table with its (BFS discovery) key order made visible."""
    return [(n, list(row.items())) for n, row in dist.items()]


@pytest.mark.parametrize("name", FABRICS)
def test_builders_produce_the_graph_networkx_did(name):
    ours, theirs = fabric_pair(name)
    assert isinstance(theirs.graph, nx.Graph) and isinstance(ours.graph, Graph)
    assert_same_graph(ours.graph, theirs.graph)
    assert ours.hosts() == theirs.hosts() and ours.switches() == theirs.switches()
    assert_same_graph(ours.graph, to_networkx(ours))


@pytest.mark.parametrize("name", FABRICS)
def test_port_numbering_equals_the_networkx_build_before_and_after_a_flap(name):
    ours, theirs = fabric_pair(name)
    u, v = switch_link(ours)
    healthy = [list(ours.graph.neighbors(n)) for n in (u, v)]
    for flapped in (False, True):
        if flapped:  # the description itself loses and regains a link
            for topo in (ours, theirs):
                topo.graph.remove_edge(u, v)
                topo.graph.add_edge(u, v)
        port_maps = [list(Network(t).port_map.items()) for t in (ours, theirs)]
        assert port_maps[0] == port_maps[1]
    # the flap did move a neighbour, so the second round compared a new order
    assert [list(ours.graph.neighbors(n)) for n in (u, v)] != healthy


@pytest.mark.parametrize("name", FABRICS)
def test_routing_view_equals_the_networkx_build_before_and_after_a_flap(name):
    ours, theirs = fabric_pair(name)
    description = to_networkx(ours)
    views = TopologyView(ours), TopologyView(theirs)
    u, v = switch_link(ours)
    hosts = ours.hosts()
    # the first host with one under its own switch, two nearby, the farthest
    pairs = [(hosts[0], hosts[i]) for i in sorted({1, 2, 4, len(hosts) - 1})]
    for state in ("healthy", "down", "up again"):
        if state != "healthy":
            for view in views:
                view.set_link_state(u, v, up=(state == "up again"))
        assert_same_graph(views[0].graph, views[1].graph)
        assert ordered(views[0].dist) == ordered(views[1].dist)
        # the detour search in place: same enumeration, same draw, same walk
        rngs = random.Random(7), random.Random(7)
        for src, dst in pairs:
            if dst not in views[0].dist[src]:
                continue  # the degraded chain is partitioned
            on_shortest = views[0].distance(src, dst) - 1
            if on_shortest > 3 and len(hosts) > 16:
                continue  # a cross-pod detour on fat_tree(8): minutes of DFS
            for extra in (1, 2, 3):
                walks = []
                for view, rng in zip(views, rngs):
                    try:
                        walks.append(
                            view.paths_with_min_switches(src, dst, on_shortest + extra, rng)
                        )
                    except ValueError as exc:  # nowhere to bounce on a chain
                        walks.append(str(exc))
                assert walks[0] == walks[1]
        assert rngs[0].random() == rngs[1].random()
    # mutating the view never touched the description it was copied from
    assert_same_graph(ours.graph, description)
