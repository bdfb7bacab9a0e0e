"""Property tests: address plausibility over randomized topologies."""

import random

from hypothesis import given, settings, strategies as st
from plausibility_oracle import oracle_pairs

from repro.core import AddressRestrictions
from repro.net import fat_tree, leaf_spine, linear
from repro.sdn import TopologyView


@st.composite
def random_topology(draw):
    kind = draw(st.sampled_from(["fat_tree", "leaf_spine", "linear"]))
    if kind == "fat_tree":
        return fat_tree(4)
    if kind == "leaf_spine":
        spines = draw(st.integers(1, 3))
        leaves = draw(st.integers(2, 4))
        hosts = draw(st.integers(1, 3))
        return leaf_spine(spines, leaves, hosts)
    return linear(draw(st.integers(2, 5)), hosts_per_switch=draw(st.integers(1, 2)))


@settings(max_examples=40, deadline=None)
@given(topo=random_topology(), seed=st.integers(0, 1000))
def test_plausible_pairs_are_sound(topo, seed):
    """The pairs reported plausible on u→v are exactly those with a
    shortest routing path through u→v (the brute-force distance oracle),
    in the oracle's order."""
    view = TopologyView(topo)
    restrictions = AddressRestrictions(view)
    rng = random.Random(seed)
    edges = list(topo.graph.edges)
    rng.shuffle(edges)
    for u, v in edges[:6]:
        assert restrictions.plausible_pairs(u, v) == oracle_pairs(view, u, v)
        assert restrictions.plausible_pairs(v, u) == oracle_pairs(view, v, u)


@settings(max_examples=40, deadline=None)
@given(topo=random_topology())
def test_every_link_has_plausible_traffic(topo):
    """No dead links: every directed link carries some plausible pair, so
    the MC can always draw an address for any segment it routes through."""
    view = TopologyView(topo)
    restrictions = AddressRestrictions(view)
    for u, v in topo.graph.edges:
        assert restrictions.plausible_pairs(u, v), f"no pairs on {u}->{v}"
        assert restrictions.plausible_pairs(v, u), f"no pairs on {v}->{u}"


@settings(max_examples=40, deadline=None)
@given(topo=random_topology(), seed=st.integers(0, 1000))
def test_samples_are_real_host_pairs(topo, seed):
    view = TopologyView(topo)
    restrictions = AddressRestrictions(view)
    rng = random.Random(seed)
    hosts = set(topo.hosts())
    for u, v in list(topo.graph.edges)[:5]:
        a, b = restrictions.sample_pair([u, v], rng)
        assert a in hosts and b in hosts and a != b


@settings(max_examples=30, deadline=None)
@given(topo=random_topology(), seed=st.integers(0, 1000))
def test_shortest_path_segments_always_have_pairs(topo, seed):
    """The intersection along any whole shortest path is non-empty (the
    endpoints themselves are always plausible)."""
    view = TopologyView(topo)
    restrictions = AddressRestrictions(view)
    rng = random.Random(seed)
    hosts = topo.hosts()
    if len(hosts) < 2:
        return
    a, b = rng.sample(hosts, 2)
    path = view.shortest_path(a, b)
    pairs = restrictions.pairs_for_segment(path)
    assert (a, b) in pairs
