"""Unit tests for the controller's topology view."""

import random
from unittest import mock

import pytest

from repro.net import fat_tree, linear
from repro.sdn import TopologyView


@pytest.fixture(scope="module")
def ft_view():
    return TopologyView(fat_tree(4))


class TestDistances:
    def test_same_edge_hosts(self, ft_view):
        assert ft_view.distance("h1", "h2") == 2

    def test_cross_pod_hosts(self, ft_view):
        assert ft_view.distance("h1", "h16") == 6

    def test_symmetric(self, ft_view):
        for a, b in [("h1", "h5"), ("h3", "h16")]:
            assert ft_view.distance(a, b) == ft_view.distance(b, a)


class TestEqualCostPaths:
    def test_cross_pod_ecmp_fanout(self, ft_view):
        # In a k=4 fat-tree, cross-pod pairs have 4 equal-cost paths
        # (2 agg choices x 2 core choices).
        paths = ft_view.equal_cost_paths("h1", "h16")
        assert len(paths) == 4
        assert all(len(p) == 7 for p in paths)

    def test_paths_are_cached(self, ft_view):
        assert ft_view.equal_cost_paths("h1", "h16") is ft_view.equal_cost_paths(
            "h1", "h16"
        )

    def test_pick_path_is_member(self, ft_view):
        rng = random.Random(0)
        for _ in range(10):
            p = ft_view.pick_path("h1", "h16", rng)
            assert p in ft_view.equal_cost_paths("h1", "h16")

    def test_shortest_path_endpoints(self, ft_view):
        p = ft_view.shortest_path("h1", "h9")
        assert p[0] == "h1" and p[-1] == "h9"


class TestLongPaths:
    def test_already_long_enough(self, ft_view):
        rng = random.Random(1)
        p = ft_view.paths_with_min_switches("h1", "h16", 3, rng)
        assert len(p) == 7  # shortest cross-pod path has 5 switches

    def test_stretch_for_more_switches(self):
        view = TopologyView(linear(3, hosts_per_switch=1))
        rng = random.Random(2)
        # h1-h2 shortest path has 2 switches; ask for 3.
        p = view.paths_with_min_switches("h1", "h2", 3, rng)
        switches = [n for n in p if n.startswith("s")]
        assert len(switches) >= 3
        assert p[0] == "h1" and p[-1] == "h2"
        # Interior must not pass through other hosts.
        assert all(not n.startswith("h") for n in p[1:-1])

    def test_impossible_stretch_raises(self):
        view = TopologyView(linear(1, hosts_per_switch=2))
        with pytest.raises(ValueError):
            view.paths_with_min_switches("h1", "h2", 5, random.Random(0))


class TestLinkPredicates:
    def test_link_on_shortest_path_true(self, ft_view):
        path = ft_view.shortest_path("h1", "h16")
        for u, v in zip(path, path[1:]):
            assert ft_view.link_on_shortest_path("h1", "h16", u, v)

    def test_link_on_shortest_path_false(self, ft_view):
        # The reverse direction of a forward-path link is not on the path.
        path = ft_view.shortest_path("h1", "h16")
        u, v = path[1], path[2]
        assert not ft_view.link_on_shortest_path("h1", "h16", v, u)

    def test_plausible_host_pairs_edge_downlink(self, ft_view):
        # Downlink from h1's edge switch to h1 carries only traffic *to* h1.
        pairs = ft_view.plausible_host_pairs("p0e0", "h1")
        assert pairs
        assert all(b == "h1" for _a, b in pairs)

    def test_plausible_host_pairs_uplink(self, ft_view):
        # Uplink h1 -> edge carries only traffic *from* h1.
        pairs = ft_view.plausible_host_pairs("h1", "p0e0")
        assert pairs
        assert all(a == "h1" for a, _b in pairs)

    def test_plausible_pairs_core_link_mixes_pods(self, ft_view):
        # An agg->core uplink carries sources from that pod to other pods.
        pairs = ft_view.plausible_host_pairs("p0a0", "c1")
        assert pairs
        srcs = {a for a, _ in pairs}
        dsts = {b for _, b in pairs}
        topo = ft_view.topo
        assert all(topo.graph.nodes[s]["pod"] == 0 for s in srcs)
        assert all(topo.graph.nodes[d]["pod"] != 0 for d in dsts)

    def test_pair_index_is_the_single_pair_predicate_for_every_pair(self, ft_view):
        # The flat index ranks hosts by name: ascending == sorted() tuples.
        hosts = ft_view.hosts
        assert hosts == tuple(ft_view.topo.hosts())
        index = ft_view.plausible_pair_index("p0a0", "c1")
        assert index.dtype == "int32" and list(index) == sorted(set(index))
        listed = {ft_view.pair_index(a, b) for a in hosts for b in hosts
                  if a != b and ft_view.link_on_shortest_path(a, b, "p0a0", "c1")}
        assert set(index.tolist()) == listed
        pairs = ft_view.pairs_from_index(index)
        assert pairs == sorted(ft_view.plausible_host_pairs("p0a0", "c1"))

    def test_link_event_rebuilds_the_host_distances(self, ft_view):
        view = TopologyView(ft_view.topo)
        before = view.plausible_host_pairs("p0a0", "c1")
        view.set_link_state("p0e0", "p0a0", up=False)
        assert ("h1", "h5") in before
        assert ("h1", "h5") not in view.plausible_host_pairs("p0a0", "c1")
        view.set_link_state("p0e0", "p0a0", up=True)
        assert view.plausible_host_pairs("p0a0", "c1") == before


class TestLinkEvents:
    """Port-status events name links of the topology, and only a change of
    state costs an all-pairs recompute."""

    @pytest.fixture
    def counted(self, monkeypatch):
        view = TopologyView(fat_tree(4))
        rebuild = mock.Mock(wraps=view._rebuild_distances)
        monkeypatch.setattr(view, "_rebuild_distances", rebuild)
        return view, rebuild

    @pytest.mark.parametrize("pair", [
        ("h1", "h16"),     # both real, never adjacent
        ("p0e0", "c1"),    # two switches that share no link
        ("h1", "nope"),    # an unknown name
        ("nope", "nada"),
    ])
    @pytest.mark.parametrize("up", [True, False])
    def test_a_pair_that_is_no_link_is_refused_and_changes_nothing(self, counted, pair, up):
        view, rebuilds = counted
        view.equal_cost_paths("h1", "h16")
        dist, cached = view.dist, dict(view._path_cache)
        links = list(view.graph.edges)
        with pytest.raises(ValueError, match="not a link"):
            view.set_link_state(*pair, up)
        assert rebuilds.call_count == 0
        assert view.dist is dist and view._path_cache == cached
        assert list(view.graph.edges) == links and len(view.graph) == len(view.topo.graph)
        assert view.distance("h1", "h16") == 6

    def test_a_repeated_event_returns_before_the_recompute(self, counted):
        view, rebuilds = counted
        paths = view.equal_cost_paths("h1", "h16")
        view.set_link_state("p0e0", "p0a0", up=True)  # it never went down
        assert rebuilds.call_count == 0
        assert view.equal_cost_paths("h1", "h16") is paths  # cache kept
        view.set_link_state("p0a0", "p0e0", up=False)  # either direction names it
        view.set_link_state("p0e0", "p0a0", up=False)
        assert rebuilds.call_count == 1 and not view.graph.has_edge("p0e0", "p0a0")
        view.set_link_state("p0e0", "p0a0", up=True)
        view.set_link_state("p0e0", "p0a0", up=True)
        assert rebuilds.call_count == 2 and view.graph.has_edge("p0a0", "p0e0")
        assert view.equal_cost_paths("h1", "h16") == paths
