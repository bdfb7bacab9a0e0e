"""Unit tests for topology builders."""

import networkx as nx
import pytest
from graph_oracle import to_networkx

from repro.net import bcube, fat_tree, leaf_spine, linear
from repro.net.topology import Topology


class TestFatTree:
    def test_paper_fabric_k4(self):
        """The paper's Fig 5: twenty 4-port switches and 16 hosts."""
        t = fat_tree(4)
        assert len(t.switches()) == 20
        assert len(t.hosts()) == 16
        # Every switch in a k=4 fat-tree has exactly 4 links.
        for s in t.switches():
            assert t.graph.degree(s) == 4

    def test_k4_layer_census(self):
        t = fat_tree(4)
        layers = [t.graph.nodes[s]["layer"] for s in t.switches()]
        assert layers.count("core") == 4
        assert layers.count("agg") == 8
        assert layers.count("edge") == 8

    def test_k6_counts(self):
        t = fat_tree(6)
        assert len(t.switches()) == 9 + 36  # (k/2)^2 core + k*k pod
        assert len(t.hosts()) == 54  # k^3/4

    def test_host_ips_unique_and_sequential(self):
        t = fat_tree(4)
        ips = [t.host_ip(h) for h in t.hosts()]
        assert len(set(ips)) == 16
        assert str(min(ips)) == "10.0.0.1"

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_hosts_at_distance_from_same_edge(self):
        t = fat_tree(4)
        # Two hosts under the same edge switch are 2 hops apart.
        g = t.graph
        h1, h2 = [h for h in t.hosts() if "p0e0" in g.neighbors(h)][:2]
        assert nx.shortest_path_length(to_networkx(t), h1, h2) == 2

    def test_cross_pod_distance(self):
        t = fat_tree(4)
        # Hosts in different pods are 6 hops apart (edge-agg-core-agg-edge).
        pods = {}
        for h in t.hosts():
            pods.setdefault(t.graph.nodes[h]["pod"], []).append(h)
        h_a, h_b = pods[0][0], pods[1][0]
        assert nx.shortest_path_length(to_networkx(t), h_a, h_b) == 6


class TestLeafSpine:
    def test_counts(self):
        t = leaf_spine(spines=2, leaves=4, hosts_per_leaf=4)
        assert len(t.switches()) == 6
        assert len(t.hosts()) == 16

    def test_leaf_uplinks(self):
        t = leaf_spine(spines=3, leaves=2, hosts_per_leaf=1)
        for leaf in (s for s in t.switches() if "leaf" in s):
            ups = [n for n in t.neighbors(leaf) if "spine" in n]
            assert len(ups) == 3

    def test_bad_args(self):
        with pytest.raises(ValueError):
            leaf_spine(spines=0)


class TestBCube:
    def test_bcube_4_1_counts(self):
        t = bcube(4, 1)
        assert len(t.hosts()) == 16
        # (k+1) * n^k level switches + one soft switch per server.
        assert len(t.switches()) == 8 + 16

    def test_soft_switch_touches_k_plus_1_levels(self):
        t = bcube(4, 1)
        for h in t.hosts():
            assert t.graph.degree(h) == 1  # host -> its soft switch only
        softs = [s for s in t.switches() if s.startswith("v")]
        for v in softs:
            # one host link + (k+1) level links
            assert t.graph.degree(v) == 3

    def test_bcube_2_2(self):
        t = bcube(2, 2)
        assert len(t.hosts()) == 8
        assert len(t.switches()) == 12 + 8  # 3 * 2^2 levels + soft

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bcube(1, 1)


class TestLinear:
    def test_paper_fig2_shape(self):
        """Alice — S1 — S2 — S3 — Bob."""
        t = linear(3, hosts_per_switch=1)
        assert len(t.switches()) == 3
        assert len(t.hosts()) == 3
        assert nx.shortest_path_length(to_networkx(t), "h1", "h3") == 4

    def test_no_hosts(self):
        with pytest.raises(ValueError):
            # disconnected without hosts is fine, but zero switches is not
            linear(0)


class TestValidation:
    def test_disconnected_rejected(self):
        t = Topology("bad")
        t.add_switch("s1")
        t.add_switch("s2")
        with pytest.raises(ValueError, match="not connected"):
            t.validate()

    def test_host_to_host_link_rejected(self):
        t = Topology("bad")
        t.add_host("h1")
        t.add_host("h2")
        t.add_link("h1", "h2")
        with pytest.raises(ValueError, match="non-switch"):
            t.validate()

    def test_link_to_missing_node_rejected(self):
        t = Topology("bad")
        t.add_switch("s1")
        with pytest.raises(ValueError):
            t.add_link("s1", "ghost")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Topology("empty").validate()


class TestNodeNames:
    """A name is one node, and a link joins two of them."""

    def test_a_switch_cannot_take_a_host_s_name(self):
        t = Topology("bad")
        t.add_host("h1")
        with pytest.raises(ValueError, match="already in use"):
            t.add_switch("h1")
        assert t.hosts() == ["h1"] and t.switches() == []
        assert t.kind("h1") == "host" and str(t.host_ip("h1")) == "10.0.0.1"
        t.add_host("h2")  # no address was burnt
        assert str(t.host_ip("h2")) == "10.0.0.2"
        assert int(t.host_mac("h2")) == int(t.host_mac("h1")) + 1

    def test_a_host_cannot_take_a_name_in_use(self):
        t = Topology("bad")
        t.add_host("h1")
        t.add_switch("s1")
        ip, mac = t.host_ip("h1"), t.host_mac("h1")
        for name in ("h1", "s1"):
            with pytest.raises(ValueError, match="already in use"):
                t.add_host(name)
        assert (t.host_ip("h1"), t.host_mac("h1")) == (ip, mac)  # not re-addressed
        assert t.hosts() == ["h1"] and t.switches() == ["s1"]
        assert "ip" not in t.graph.nodes["s1"]

    def test_a_switch_cannot_be_added_twice(self):
        t = Topology("bad")
        t.add_switch("s1", layer="edge")
        with pytest.raises(ValueError, match="already in use"):
            t.add_switch("s1", layer="core")
        assert t.switches() == ["s1"] and t.graph.nodes["s1"]["layer"] == "edge"

    def test_self_loop_rejected(self):
        t = Topology("bad")
        t.add_switch("s1")
        with pytest.raises(ValueError, match="self-loop"):
            t.add_link("s1", "s1")
        assert list(t.graph.edges) == [] and t.graph.degree("s1") == 0

    @pytest.mark.parametrize("build", [
        lambda: fat_tree(6), lambda: leaf_spine(3, 5, 2),
        lambda: bcube(3, 2), lambda: linear(4, 3),
    ])
    def test_shipped_builders_use_each_name_once(self, build):
        t = build()  # would raise
        names = t.hosts() + t.switches()
        assert len(names) == len(set(names)) == len(t.graph)
        assert sorted(names, key=list(t.graph.nodes).index) == list(t.graph.nodes)

    def test_host_and_switch_lists_are_copies_in_insertion_order(self):
        t = linear(2, hosts_per_switch=1)
        assert t.hosts() == ["h1", "h2"] and t.switches() == ["s1", "s2"]
        t.hosts().clear()
        t.switches().append("ghost")
        assert t.hosts() == ["h1", "h2"] and t.switches() == ["s1", "s2"]
        assert not t.is_host("ghost") and not t.is_host("s1") and t.is_host("h2")
