"""The hybrid scale-scenario driver: arithmetic paths + end-to-end runs."""

import itertools
import math
from unittest import mock

import pytest

from repro.bench import fat_tree_path, hybrid_scenario, run_hybrid_scenario
from repro.net import fat_tree


def _adjacency(k):
    topo = fat_tree(k)
    adj = set()
    for a, b in topo.graph.edges():
        adj.add((a, b))
        adj.add((b, a))
    return topo, adj


@pytest.mark.parametrize("k", [4, 8])
def test_arithmetic_paths_are_real_topology_walks(k):
    topo, adj = _adjacency(k)
    hosts = topo.hosts()
    pairs = (
        itertools.permutations(hosts, 2)
        if k == 4
        else [(hosts[i], hosts[-1 - i]) for i in range(len(hosts) // 2)]
    )
    for s, d in pairs:
        path = fat_tree_path(k, s, d, salt="t")
        assert path[0] == s and path[-1] == d
        for u, v in zip(path, path[1:]):
            assert (u, v) in adj, (s, d, path)


def test_path_shapes_match_locality():
    # same edge switch: 1 hop; same pod: 3 switches; cross-pod: 5 switches
    assert len(fat_tree_path(4, "h1", "h2")) == 3
    assert len(fat_tree_path(4, "h1", "h3")) == 5
    assert len(fat_tree_path(4, "h1", "h5")) == 7
    # ECMP choice is deterministic per (src, dst, salt) and salt-sensitive
    assert fat_tree_path(8, "h1", "h100", salt="a") == fat_tree_path(
        8, "h1", "h100", salt="a"
    )
    salted = {tuple(fat_tree_path(8, "h1", "h100", salt=i)) for i in range(32)}
    assert len(salted) > 1


def test_cross_pod_path_is_valley_free():
    # up to the core and straight down: the dst-side agg mirrors the
    # src-side agg index (core c{x*half+j+1} only connects to agg x).
    path = fat_tree_path(8, "h1", "h100", salt="t")
    assert len(path) == 7
    core = path[3]
    assert core.startswith("c")
    agg_idx = (int(core[1:]) - 1) // 4
    assert path[2].endswith(f"a{agg_idx}") and path[4].endswith(f"a{agg_idx}")


def test_path_rejects_bad_hosts():
    with pytest.raises(ValueError):
        fat_tree_path(4, "h1", "h1")
    with pytest.raises(ValueError):
        fat_tree_path(4, "h1", "h17")


def test_small_scenario_finishes_all_channels():
    r = run_hybrid_scenario(
        k=4, channels=40, payload_bytes=100_000, sample_rate=0.05,
        seed=3, time_limit_s=30.0,
    )
    assert r.fluid_flows + r.packet_flows == 40
    assert r.fluid_finished == r.fluid_flows
    assert r.packet_finished == r.packet_flows
    # the last lane finishes within its epochs, not at the time limit
    assert 0.0 < r.sim_time_s <= r.epochs * 0.010 < 1.0
    assert r.epochs > 0 and r.bytes_advanced > 0
    assert len(r.fluid_goodput_bps) == r.fluid_flows
    assert all(v > 0 for v in r.fluid_goodput_bps.values())
    if r.packet_flows:
        assert r.debited_bytes > 0
        assert all(v > 0 for v in r.packet_goodput_bps.values())


def test_sim_time_is_the_limit_when_a_lane_is_unfinished():
    r = run_hybrid_scenario(
        k=4, channels=10, payload_bytes=1_000_000, seed=7, time_limit_s=0.002,
    )
    assert r.fluid_finished < r.fluid_flows
    assert r.sim_time_s == 0.002


def test_scenario_is_deterministic_across_runs():
    a = run_hybrid_scenario(k=4, channels=25, payload_bytes=50_000, seed=9)
    b = run_hybrid_scenario(k=4, channels=25, payload_bytes=50_000, seed=9)
    assert a.fluid_goodput_bps == b.fluid_goodput_bps
    assert a.packet_goodput_bps == b.packet_goodput_bps
    assert (a.epochs, a.resolves, a.bytes_advanced) == (
        b.epochs, b.resolves, b.bytes_advanced,
    )


def test_observed_scenario_snapshot_carries_fluid_counters():
    r = run_hybrid_scenario(
        k=4, channels=20, payload_bytes=50_000, seed=2, observe=True,
    )
    snap = r.observer.snapshot()
    assert snap.total("fluid.flows.finished") == r.fluid_finished
    assert snap.total("fluid.epochs") == r.epochs


@pytest.mark.parametrize("param, value", [
    ("channels", -1), ("channels", 0), ("channels", 1.5),
    ("payload_bytes", 0), ("payload_bytes", -1), ("payload_bytes", math.nan),
    ("sample_rate", math.nan), ("sample_rate", -1), ("sample_rate", 1.5),
    ("epoch_s", math.nan), ("epoch_s", 0), ("epoch_s", math.inf),
    ("time_limit_s", math.nan), ("time_limit_s", 0), ("time_limit_s", -1),
])
def test_a_bad_number_is_refused_before_the_fabric_is_built(param, value):
    """Each used to run (``channels=-1`` gave 0 lanes, a nan time limit
    ran on) or fail inside the engine with a ``SimulationError``."""
    with mock.patch.object(hybrid_scenario, "fat_tree", side_effect=AssertionError):
        with pytest.raises(ValueError, match=param):
            run_hybrid_scenario(**{"k": 4, "channels": 4, "payload_bytes": 10_000,
                                   param: value})
