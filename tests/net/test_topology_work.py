"""What building and searching a topology may cost, in interpreter frames.

Counts from ``cProfile`` (the idiom, and the helper, of
``test_hop_budget.py``), never wall-clock time: the quadratic this pins —
every ``add_host`` recounting the hosts through a node view, 130.7 calls per
node-or-link at ``k = 16`` against 25.7 at ``k = 8`` — was invisible at the
sizes the unit tests build and a tenth of a second in ``hybrid_fluid``.
"""

from test_hop_budget import profiled_calls

from repro.net import fat_tree
from repro.sdn import TopologyView

#: Python frames one node or one link may cost a builder, validation included
BUILD_BUDGET = 15.0


def test_building_a_fat_tree_is_linear_in_its_size():
    per_item = {}
    for k in (8, 16):
        calls = profiled_calls(fat_tree, k)
        assert ("net/topology.py", "hosts") not in calls  # add_host keeps a list
        assert calls[("net/topology.py", "add_host")] == k ** 3 // 4
        topo = fat_tree(k)
        per_item[k] = sum(calls.values()) / (len(topo.graph) + len(topo.graph.edges))
    assert per_item[16] <= BUILD_BUDGET, per_item
    # the mix shifts towards hosts and links as k grows (+8 %); a term that
    # grows with the fabric, as the recount did, shows as a multiple (5x)
    assert per_item[16] <= per_item[8] * 1.5, per_item


#: Python frames one node may cost one all-pairs distance rebuild: about one
#: today, the comprehension over its neighbours — a call per node *pair*
#: would cost hundreds
REBUILD_BUDGET = 2.0


def test_a_distance_row_costs_no_call_into_the_graph():
    for k in (8, 16):
        view = TopologyView(fat_tree(k))
        calls = profiled_calls(lambda _n: view._rebuild_distances(), 1)
        assert not [key for key in calls if key[0] == "net/graph.py"], calls
        assert calls[("sdn/discovery.py", "_rebuild_distances")] == 1
        assert sum(calls.values()) <= REBUILD_BUDGET * len(view.graph), calls


def test_distance_rows_are_named_on_first_read_and_dropped_by_a_link_event():
    view = TopologyView(fat_tree(4))
    assert view.dist._rows == {}  # building the view named no row
    row = view.dist["h1"]
    assert list(view.dist._rows) == ["h1"] and view.dist["h1"] is row
    assert view.distance("h1", "h16") == 6 and list(view.dist._rows) == ["h1"]
    view.set_link_state("p0e0", "p0a0", up=True)  # it never went down
    assert view.dist["h1"] is row
    view.set_link_state("p0e0", "p0a0", up=False)
    assert view.dist._rows == {}
    assert view.dist["h1"] is not row and list(view.dist._rows) == ["h1"]
    assert (row["p0a0"], view.dist["h1"]["p0a0"]) == (2, 4)  # round by p0a1, p0e1
