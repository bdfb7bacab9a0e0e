"""Equal-cost path enumeration against the search it replaced.

``TopologyView.equal_cost_paths`` walks a per-source predecessor map; the
oracle (``tests/sdn/paths_oracle.py``) is the depth-first search that
re-scanned adjacency for every pair.  On generated fabrics, path caps and
link failure / repair sequences, every ordered node pair — hosts and
switches — gets the same list from both, ``NoPathError`` exactly where the
oracle raises it, and every link event that changes the view drops what
the view had cached.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import bcube, fat_tree, leaf_spine, linear
from repro.net.graph import NoPathError
from repro.sdn import TopologyView
from tests.sdn.paths_oracle import equal_cost_paths as oracle_paths

FABRICS = {
    "fat_tree4": lambda: fat_tree(4),
    "fat_tree6": lambda: fat_tree(6),
    "leaf_spine": leaf_spine,
    "bcube": bcube,
    "linear": linear,
}
CAPS = (1, 2, 3, 16)


def _answer(ask, view, src, dst):
    try:
        return ask(view, src, dst)
    except NoPathError as exc:
        return ("no path", str(exc))


def assert_every_pair_matches(view):
    nodes = list(view.graph.nodes)
    for src in nodes:
        for dst in nodes:
            ours = _answer(TopologyView.equal_cost_paths, view, src, dst)
            assert ours == _answer(oracle_paths, view, src, dst), (src, dst)
            if isinstance(ours, list):
                assert 1 <= len(ours) <= view.max_equal_cost_paths


@settings(max_examples=40, deadline=None)
@given(
    fabric=st.sampled_from(sorted(FABRICS)),
    cap=st.sampled_from(CAPS),
    events=st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans()), max_size=4
    ),
)
def test_paths_equal_the_search_after_every_link_event(fabric, cap, events):
    topo = FABRICS[fabric]()
    view = TopologyView(topo, max_equal_cost_paths=cap)
    links = list(topo.graph.edges)
    assert_every_pair_matches(view)
    for which, up in events:
        u, v = links[which % len(links)]
        changed = view.graph.has_edge(u, v) != up
        view.set_link_state(u, v, up)
        if changed:
            assert not view._path_cache and not view._nearer
        assert_every_pair_matches(view)


def test_a_partition_is_refused_where_the_search_refuses_it():
    """``linear(3)`` cut between ``s1`` and ``s2``: the far side has no
    path either way, ``h1``'s own switch still has one, and the repair
    brings the path back."""
    view = TopologyView(linear(3))
    view.set_link_state("s1", "s2", False)
    with pytest.raises(NoPathError, match="no routing path h1 -> h3"):
        view.equal_cost_paths("h1", "h3")
    with pytest.raises(NoPathError):
        oracle_paths(view, "h1", "h3")
    assert view.equal_cost_paths("h1", "s1") == [["h1", "s1"]]
    view.set_link_state("s1", "s2", True)
    assert view.equal_cost_paths("h1", "h3") == oracle_paths(view, "h1", "h3")


@pytest.mark.parametrize("cap", [0, -3])
def test_a_path_cap_below_one_is_refused(cap):
    """A cap below one used to answer ``[]`` for a reachable pair, and the
    single-path queries then failed far from the cause."""
    with pytest.raises(ValueError, match=f"max_equal_cost_paths {cap} must be >= 1"):
        TopologyView(fat_tree(4), max_equal_cost_paths=cap)
