"""Unit tests for per-link m-address plausibility restrictions."""

import random

import pytest

from repro.core.restrictions import AddressRestrictions
from repro.net import fat_tree, linear
from repro.sdn import TopologyView


@pytest.fixture(scope="module")
def ft():
    view = TopologyView(fat_tree(4))
    return view, AddressRestrictions(view)


class TestLinkPlausibility:
    def test_host_uplink_sources_are_that_host(self, ft):
        view, r = ft
        pairs = r.plausible_pairs("h1", "p0e0")
        assert pairs and all(a == "h1" for a, _ in pairs)

    def test_host_downlink_destinations_are_that_host(self, ft):
        view, r = ft
        pairs = r.plausible_pairs("p0e0", "h1")
        assert pairs and all(b == "h1" for _, b in pairs)

    def test_is_plausible(self, ft):
        view, r = ft
        assert r.is_plausible("h1", "p0e0", "h1", "h5")
        assert not r.is_plausible("h1", "p0e0", "h2", "h5")


class TestSegmentPlausibility:
    def test_whole_shortest_path_segment(self, ft):
        view, r = ft
        path = view.shortest_path("h1", "h16")
        pairs = r.pairs_for_segment(path)
        # The true endpoints must be plausible for their own path.
        assert ("h1", "h16") in pairs

    def test_interior_segment_mixes_many_pairs(self, ft):
        view, r = ft
        path = view.shortest_path("h1", "h16")
        interior = path[2:-2]  # agg-core-agg
        pairs = r.pairs_for_segment(interior)
        # Many host pairs route through the same core segment.
        assert len(pairs) > 1

    def test_empty_segment_returns_universe(self, ft):
        view, r = ft
        pairs = r.pairs_for_segment(["p0e0"])
        hosts = view.topo.hosts()
        assert len(pairs) == len(hosts) * (len(hosts) - 1)

    def test_bounce_segment_falls_back(self):
        view = TopologyView(linear(3, hosts_per_switch=1))
        r = AddressRestrictions(view)
        # s2->s3->s2 is never on a shortest path as a whole.
        pairs = r.pairs_for_segment(["s2", "s3", "s2"])
        assert pairs  # falls back to the first link's set
        first = set(r.plausible_pairs("s2", "s3"))
        assert set(pairs) <= first


class TestSampling:
    def test_sample_is_member(self, ft):
        view, r = ft
        rng = random.Random(0)
        path = view.shortest_path("h1", "h16")
        pool = set(r.pairs_for_segment(path))
        for _ in range(20):
            assert r.sample_pair(path, rng) in pool

    def test_sample_avoids_when_possible(self, ft):
        view, r = ft
        rng = random.Random(1)
        seg = ["p0a0", "c1"]
        pool = r.pairs_for_segment(seg)
        avoid = pool[:-1]  # leave exactly one allowed pair
        for _ in range(10):
            assert r.sample_pair(seg, rng, avoid=avoid) == pool[-1]

    def test_sample_ignores_avoid_when_exhaustive(self, ft):
        view, r = ft
        rng = random.Random(2)
        seg = ["h1", "p0e0"]
        pool = r.pairs_for_segment(seg)
        pair = r.sample_pair(seg, rng, avoid=pool)
        assert pair in pool
