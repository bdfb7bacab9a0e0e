"""The distance matrix against the per-node search it replaced.

``TopologyView`` computes routing distances among switches only and derives
every host row and column from its switch neighbours; the oracle
(``distance_oracle``) is the absorbing breadth-first search per node the
view ran before, and the loops that turned its dicts into the host-distance
arrays.  After every link event of a generated down/up sequence the two
agree on every distance, on every array the plausibility index reads — same
dtype, same shape, same bits — and on every equal-cost path set.
"""

import random

import numpy as np
import pytest
from distance_oracle import oracle_dist, oracle_pair_index, oracle_rebuild
from hypothesis import given, settings, strategies as st

from repro.net import Topology, bcube, fat_tree, leaf_spine, linear
from repro.net.graph import NoPathError
from repro.sdn import TopologyView


def hand_built():
    """No builder's fabric, and no validation: a chain of switches any one
    link removal partitions, a switch and a host joined to nothing, a
    two-homed host, two attached hosts with a link of their own, and a host
    whose only neighbour is another host."""
    topo = Topology("hand-built")
    for s in ("s1", "s2", "s3", "s4", "s-alone"):
        topo.add_switch(s)
    for h in ("h1", "h2", "h3", "h4", "h5", "h-alone"):
        topo.add_host(h)
    for link in [
        ("s1", "s2"), ("s2", "s3"), ("s3", "s4"),
        ("h1", "s1"), ("h2", "s2"), ("h3", "s4"),
        ("h5", "s1"), ("h5", "s4"),  # two-homed: a second way round
        ("h2", "h3"),  # hosts that are attached, and adjacent
        ("h1", "h4"),  # h4 hangs off a host only
    ]:
        topo.add_link(*link)
    return topo


FABRICS = {
    "fat_tree4": lambda: fat_tree(4),
    "fat_tree8": lambda: fat_tree(8),
    "leaf_spine": leaf_spine,
    "bcube41": lambda: bcube(4, 1),
    "bcube32": lambda: bcube(3, 2),
    "linear": linear,
    "hand_built": hand_built,
}
#: link events of one example fall in a window this wide of the builder's
#: link order, so a sequence keeps hitting one neighbourhood of a big fabric
WINDOW = 12


def assert_same_array(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs)


def paths_or_refusal(view, src, dst):
    try:
        return view.equal_cost_paths(src, dst)
    except NoPathError as exc:
        return str(exc)


def assert_view_equals_the_oracle(view, reference, rng):
    dist, to_hosts, host_dist = oracle_rebuild(view)
    nodes = list(view.graph.nodes)
    assert {n: dict(view.dist[n]) for n in nodes} == dist
    assert list(view.dist) == nodes and len(view.dist) == len(nodes)
    assert_same_array(view._host_dist, host_dist)
    # every node's column slice to the hosts in rank order, ``_FAR`` and all
    matrix = view.dist._matrix
    for n in nodes:
        assert_same_array(matrix[view._index[n], view._ranked_cols], to_hosts[n])

    links = [d for u, v in view.topo.graph.edges for d in ((u, v), (v, u))]
    for u, v in rng.sample(links, min(len(links), 48)):
        assert_same_array(
            view.plausible_pair_index(u, v),
            oracle_pair_index(to_hosts, host_dist, u, v),
        )
    assert view.plausible_pair_index(nodes[0], "nope").size == 0

    # the same enumeration over the oracle's rows: same lists, same refusals
    reference.dist = dist
    reference._path_cache.clear()
    reference._nearer.clear()
    for _ in range(24):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        assert paths_or_refusal(view, src, dst) == paths_or_refusal(reference, src, dst)
        if dst in dist[src]:
            assert view.distance(src, dst) == dist[src][dst]
            assert type(view.distance(src, dst)) is int


@settings(max_examples=150, deadline=None)
@given(
    fabric=st.sampled_from(sorted(FABRICS)),
    offset=st.integers(0, 10_000),
    events=st.lists(
        st.tuples(st.integers(0, WINDOW - 1), st.booleans()), max_size=8
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_distances_equal_the_search_after_every_link_event(fabric, offset, events, seed):
    topo = FABRICS[fabric]()
    view, reference = TopologyView(topo), TopologyView(topo)
    rng = random.Random(seed)
    links = list(topo.graph.edges)
    window = [links[(offset + i) % len(links)] for i in range(WINDOW)]
    assert_view_equals_the_oracle(view, reference, rng)
    for which, up in events:
        u, v = window[which]
        for each in (view, reference):
            each.set_link_state(u, v, up)
        assert_view_equals_the_oracle(view, reference, rng)


def test_every_link_of_the_hand_built_fabric_down_then_up():
    """Exhaustive where the generated sequences are sampled: each link down
    alone (every partition of the chain, every orphaned host), then every
    link down at once, then all of them back."""
    topo = hand_built()
    view, reference = TopologyView(topo), TopologyView(topo)
    rng = random.Random(0)
    links = list(topo.graph.edges)
    healthy = {n: dict(view.dist[n]) for n in view.graph.nodes}
    assert healthy["h4"] == {"h4": 0, "h1": 1}  # h1 does not relay
    assert healthy["h2"]["h3"] == 1  # their own link, not s2-s3-s4
    assert healthy["h1"]["h3"] == 5  # the whole chain: two-homed h5 is no shortcut
    assert healthy["s-alone"] == {"s-alone": 0} and healthy["h-alone"] == {"h-alone": 0}
    for u, v in links:
        for up in (False, True):
            for each in (view, reference):
                each.set_link_state(u, v, up)
            assert_view_equals_the_oracle(view, reference, rng)
    for up in (False, True):
        for u, v in links:
            for each in (view, reference):
                each.set_link_state(u, v, up)
        assert_view_equals_the_oracle(view, reference, rng)
    assert {n: dict(view.dist[n]) for n in view.graph.nodes} == healthy


@pytest.mark.parametrize("build", [
    lambda: Topology("empty"),
    lambda: linear(2, hosts_per_switch=0),  # switches, no host: 0 x 0 host matrix
])
def test_a_fabric_without_hosts_still_has_its_arrays(build):
    view = TopologyView(build())
    assert view._host_dist.shape == (0, 0) and view._host_dist.dtype == np.int32
    assert view._geo_to_hosts.shape == (len(view.graph.nodes), 0)
    assert {n: dict(view.dist[n]) for n in view.graph.nodes} == oracle_dist(view)


def test_a_view_refuses_more_nodes_than_its_int16_copies_hold():
    """The plausibility compare reads int16 copies whose "no route" is
    2**13, above every distance only while the view has at most that many
    nodes."""
    topo = linear((1 << 13) + 1, hosts_per_switch=0)
    with pytest.raises(ValueError, match="more than 8192 nodes"):
        TopologyView(topo)


def test_dist_is_a_mapping_of_the_nodes_and_refuses_other_names():
    view = TopologyView(fat_tree(4))
    assert "h1" in view.dist and "nope" not in view.dist
    assert view.dist.get("nope") is None
    with pytest.raises(KeyError):
        view.dist["nope"]
    with pytest.raises(KeyError):
        view.distance("h1", "nope")
    assert view.dist["h1"] is view.dist["h1"]  # named once
    assert list(view.dist["h1"]) == list(view.graph.nodes)  # node order
