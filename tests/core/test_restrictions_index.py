"""The vectorised plausibility index against its brute-force oracle.

Covers what ``rng.choice(pool)`` makes observable: set membership, the
order of every list handed out, the three fallbacks, and pools that follow
the view across link events.
"""

import random

import pytest
from plausibility_oracle import directed_links, oracle_pairs, oracle_segment

from repro.core.restrictions import AddressRestrictions
from repro.net import Topology, bcube, fat_tree, leaf_spine, linear
from repro.sdn import TopologyView

FABRICS = {
    "fat_tree4": lambda: fat_tree(4),
    "fat_tree8": lambda: fat_tree(8),
    "bcube": lambda: bcube(4, 1),
    "leaf_spine": lambda: leaf_spine(2, 4, 3),
}
#: fat_tree(8) has 768 directed links x 16,256 pairs: the oracle gets a sample
SAMPLED = {"fat_tree8": 24}


def _links(name, topo):
    links = directed_links(topo)
    if name in SAMPLED:
        links = random.Random(13).sample(links, SAMPLED[name])
    return links


def _core_link(view):
    """A switch-to-switch link: failing it reroutes, it never partitions."""
    return next(
        (u, v) for u, v in view.topo.graph.edges
        if view.topo.kind(u) == view.topo.kind(v) == "switch"
    )


def _shuffled_names_topology():
    """A two-switch fabric whose hosts are neither added nor named in
    sorted order, so hosts() order, sorted() order and rank all differ."""
    topo = Topology("shuffled")
    left, right = topo.add_switch("s-left"), topo.add_switch("s-right")
    topo.add_link(left, right)
    for name, switch in [
        ("zeta", left), ("h10", right), ("alpha", left),
        ("h2", right), ("mid", left), ("h1", right),
    ]:
        topo.add_link(topo.add_host(name), switch)
    return topo


@pytest.mark.parametrize("name", FABRICS)
def test_index_equals_oracle_healthy_down_and_up(name):
    topo = FABRICS[name]()
    view = TopologyView(topo)
    links = _links(name, topo)
    failed = _core_link(view)
    for state in ("healthy", "down", "up"):
        if state != "healthy":
            view.set_link_state(*failed, up=(state == "up"))
        fresh = AddressRestrictions(view)
        for u, v in links:
            expected = oracle_pairs(view, u, v)
            assert view.plausible_host_pairs(u, v) == expected, (state, u, v)
            assert fresh.plausible_pairs(u, v) == expected, (state, u, v)


@pytest.mark.parametrize(
    "make", [lambda: fat_tree(4), _shuffled_names_topology],
    ids=["fat_tree4", "shuffled-names"],
)
def test_pool_order_is_sorted_by_name_fallbacks_in_hosts_order(make):
    topo = make()
    hosts = topo.hosts()
    assert hosts != sorted(hosts), "needs lexicographic != insertion order"
    view = TopologyView(topo)
    r = AddressRestrictions(view)
    rng = random.Random(5)
    for _ in range(30):
        a, b = rng.sample(hosts, 2)
        path = view.pick_path(a, b, rng)
        i = rng.randrange(len(path) - 1)
        j = rng.randrange(i + 1, len(path))
        segment = path[i : j + 1]
        pool = r.pairs_for_segment(segment)
        assert pool == oracle_segment(view, segment)
        assert pool == sorted(pool)
    for u, v in directed_links(topo):
        # one link: plausible_pairs walks hosts(), the pool is sorted()
        assert r.plausible_pairs(u, v) == oracle_pairs(view, u, v)
        assert r.pairs_for_segment([u, v]) == sorted(oracle_pairs(view, u, v))


def test_empty_intersection_returns_first_link_in_hosts_order():
    view = TopologyView(linear(3, hosts_per_switch=2))
    r = AddressRestrictions(view)
    bounce = ["s2", "s3", "s2"]  # no shortest path goes there and back
    first = oracle_pairs(view, "s2", "s3")
    assert first != sorted(first) or len(first) > 1
    assert r.pairs_for_segment(bounce) == first == oracle_segment(view, bounce)


def test_stops_intersecting_at_the_first_empty_link():
    """Once the pool is empty the links after it cannot refill it: the
    segment falls back to its first link's set whatever follows."""
    view = TopologyView(linear(3, hosts_per_switch=1))
    r = AddressRestrictions(view)
    first = oracle_pairs(view, "s2", "s3")
    for tail in (["s1"], ["s1", "h1"], ["nope"]):
        segment = ["s2", "s3", "s2"] + tail
        assert r.pairs_for_segment(segment) == first == oracle_segment(view, segment)


def test_universe_fallbacks_in_hosts_order():
    topo = _shuffled_names_topology()
    view = TopologyView(topo)
    r = AddressRestrictions(view)
    hosts = topo.hosts()
    universe = [(a, b) for a in hosts for b in hosts if a != b]
    assert r.pairs_for_segment(["s-left"]) == universe  # no links
    assert r.pairs_for_segment([]) == universe
    # empty first link: a node the view has never heard of
    assert r.plausible_pairs("nope", "s-left") == []
    assert r.pairs_for_segment(["nope", "s-left", "s-right"]) == universe
    assert oracle_segment(view, ["nope", "s-left", "s-right"]) == universe


def test_partitioned_or_unknown_nodes_give_empty_sets():
    view = TopologyView(linear(3, hosts_per_switch=1))
    view.set_link_state("s1", "s2", up=False)  # h1 | h2, h3
    r = AddressRestrictions(view)
    for u, v in [("s1", "s2"), ("s2", "s1"), ("nope", "s2"), ("s2", "nope")]:
        assert view.plausible_host_pairs(u, v) == []
        assert r.plausible_pairs(u, v) == []
        assert not r.is_plausible(u, v, "h2", "h3")
    # the side that still routes is unaffected, pairs across the cut vanish
    assert r.plausible_pairs("s2", "s3") == [("h2", "h3")]
    assert r.plausible_pairs("h1", "s1") == []
    assert not r.is_plausible("s2", "s3", "h2", "nope")


def test_pools_follow_the_view_through_a_link_flap():
    """Nothing is cached: after ``set_link_state`` every pool, link set and
    membership answer is the oracle's on the view as it is now."""
    view = TopologyView(fat_tree(4))
    r = AddressRestrictions(view)
    links = [("p0a0", "c1"), ("p0a0", "c2"), ("p0e0", "p0a1")]
    segments = [["p0e1", "p0a0", "c1"], ["h1", "p0e0", "p0a1", "c3", "p2a1"]]
    hosts = view.topo.hosts()

    def check():
        for u, v in links:
            expected = oracle_pairs(view, u, v)
            assert r.plausible_pairs(u, v) == expected
            on = set(expected)
            for a in hosts[:6]:
                for b in hosts:
                    assert r.is_plausible(u, v, a, b) == ((a, b) in on)
        for segment in segments:
            assert r.pairs_for_segment(segment) == oracle_segment(view, segment)
        return r.plausible_pairs(*links[0])

    healthy = check()
    # p0e0 loses its way up through p0a0: h1 and h2 leave via p0a1 only
    view.set_link_state("p0e0", "p0a0", up=False)
    degraded = check()
    assert ("h1", "h5") in healthy and ("h1", "h5") not in degraded
    assert not r.is_plausible("p0a0", "c1", "h1", "h5")
    assert r.is_plausible("p0e0", "p0a1", "h1", "h5")
    view.set_link_state("p0e0", "p0a0", up=True)
    assert check() == healthy


def test_is_plausible_agrees_with_the_oracle():
    view = TopologyView(fat_tree(4))
    r = AddressRestrictions(view)
    hosts = view.topo.hosts()
    for u, v in [("h1", "p0e0"), ("p0a0", "c1"), ("c1", "p3a0")]:
        expected = set(oracle_pairs(view, u, v))
        for a in hosts:
            for b in hosts:
                assert r.is_plausible(u, v, a, b) == ((a, b) in expected)
