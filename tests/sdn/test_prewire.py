"""Proactive L3 wiring: one bundle per switch, against the per-rule oracle.

``wire_all_pairs`` plans every host pair as ``wire_pair`` does and sends
each switch its rules as one ``Controller.install_batch`` bundle.  The
oracle (``tests/sdn/prewire_oracle.py``) is the old rule-by-rule pre-wire,
with its own planner and rule builder; without faults the two must leave
identical tables and app state.
"""

import copy

import pytest

from repro.bench import Testbed
from repro.core import deploy_mic
from repro.faults import FaultSchedule
from repro.net import NetParams, Network, bcube, fat_tree, leaf_spine
from repro.net.flowtable import TableFullError
from repro.sdn import Controller, L3ShortestPathApp
from repro.sdn.controller import InstallLostError
from tests.sdn.prewire_oracle import (
    table_rows,
    wire_all_pairs_per_rule,
    wire_pair_per_rule,
)


def _build(k_or_topo, seed: int, params=None):
    topo = fat_tree(k_or_topo) if isinstance(k_or_topo, int) else k_or_topo
    net = Network(topo, params=params or NetParams(), seed=seed)
    ctrl = Controller(net)
    l3 = ctrl.register(L3ShortestPathApp())
    return net, ctrl, l3


def _app_state(l3) -> tuple:
    return l3.pair_paths, l3._pair_cookies, l3._installed_pairs, l3._next_cookie


#: ``fat_tree(k)`` by arity, and two fabrics whose hosts are multi-homed
#: (BCube: a server on every level's switch) or whose paths fan out at the
#: leaves (leaf-spine), each built afresh per side
FABRICS = {
    "fat_tree4": lambda: fat_tree(4),
    "fat_tree6": lambda: fat_tree(6),
    "leaf_spine": leaf_spine,
    "bcube": bcube,
}


@pytest.mark.parametrize("fabric, seed", [
    pytest.param("fat_tree4", 0, id="4-0"),
    pytest.param("fat_tree4", 1, id="4-1"),
    pytest.param("fat_tree4", 7, id="4-7"),
    pytest.param("fat_tree6", 0, id="6-0"),
    pytest.param("fat_tree6", 3, id="6-3"),
    pytest.param("leaf_spine", 0, id="leaf_spine-0"),
    pytest.param("leaf_spine", 5, id="leaf_spine-5"),
    pytest.param("bcube", 0, id="bcube-0"),
    pytest.param("bcube", 2, id="bcube-2"),
])
def test_bundled_prewire_matches_the_per_rule_oracle(fabric, seed):
    net_a, ctrl_a, l3_a = _build(FABRICS[fabric](), seed)
    net_a.run(until=net_a.sim.all_of(wire_all_pairs_per_rule(l3_a)))
    net_b, ctrl_b, l3_b = _build(FABRICS[fabric](), seed)
    bundles = l3_b.wire_all_pairs()
    net_b.run(until=net_b.sim.all_of(bundles))

    assert len(bundles) == len(net_b.switches())  # every switch routes some pair
    assert table_rows(net_b) == table_rows(net_a)
    assert _app_state(l3_b) == _app_state(l3_a)
    assert ctrl_b.flow_mods_sent == ctrl_a.flow_mods_sent
    assert net_b.sim.now == net_a.sim.now
    assert not net_a.sim._heap and not net_b.sim._heap


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_reactive_wire_pair_matches_the_per_rule_oracle(fabric):
    """``wire_pair`` shares the pre-wire's planner and builder: pair by
    pair it sends what the oracle sends, one message per rule."""
    hosts = FABRICS[fabric]().hosts()
    pairs = [(hosts[0], hosts[-1]), (hosts[-2], hosts[1]), (hosts[2], hosts[3])]
    net_a, ctrl_a, l3_a = _build(FABRICS[fabric](), 4)
    events_a = [ev for a, b in pairs for ev in wire_pair_per_rule(l3_a, a, b)]
    net_a.run()
    net_b, ctrl_b, l3_b = _build(FABRICS[fabric](), 4)
    events_b = [ev for a, b in pairs for ev in l3_b.wire_pair(a, b)]
    net_b.run()

    assert len(events_b) == len(events_a) == ctrl_b.flow_mods_sent
    assert table_rows(net_b) == table_rows(net_a)
    assert _app_state(l3_b) == _app_state(l3_a)


def test_wiring_a_wired_pair_again_is_refused_before_any_draw():
    """A second wiring of a pair used to install a second path under a new
    cookie, overwriting the pair's cookie: the first path's rules could
    then never be forgotten (10 stranded rules, 10 ``duplicate-rule``
    warnings on ``fat_tree(4)`` at seed 0)."""
    net, ctrl, l3 = _build(4, 0)
    net.run(until=net.sim.all_of(l3.wire_all_pairs()))
    rows = table_rows(net)
    state = tuple(copy.deepcopy(part) for part in _app_state(l3))
    rng_state = ctrl.rng.getstate()
    sent = ctrl.flow_mods_sent
    for a, b in (("h1", "h16"), ("h16", "h1")):
        with pytest.raises(ValueError, match=f"host pair {a}-{b} is already wired"):
            l3.wire_pair(a, b)
    with pytest.raises(ValueError, match="host pair h1-h2 is already wired"):
        l3.wire_all_pairs()
    net.run()
    assert ctrl.rng.getstate() == rng_state and ctrl.flow_mods_sent == sent
    assert table_rows(net) == rows and _app_state(l3) == state
    assert not ctrl.verify().violations

    l3._forget("h1", "h16")  # forgotten, the pair may be wired again
    net.run()
    assert not any(
        e.cookie == state[1][("h1", "h16")]
        for sw in net.switches() for e in sw.table.iter_entries()
    )
    l3.wire_pair("h1", "h16")
    net.run()
    assert sum(len(sw.table) for sw in net.switches()) == 1072
    assert not ctrl.verify().violations


def test_prewire_bundle_meets_a_lossy_plane_as_one_message():
    """One fate draw per attempt per switch bundle, every rule lands, and
    the rules are exactly the fault-free pre-wire's — ids included."""
    net_a, _ctrl, l3_a = _build(4, 0)
    net_a.run(until=net_a.sim.all_of(l3_a.wire_all_pairs()))

    net, ctrl, l3 = _build(4, 0)
    sched = FaultSchedule(seed=2)
    sched.rule_install_loss(at_s=0.0, duration_s=5.0, loss_prob=0.3)
    sched.attach(net, ctrl)
    draws = []
    fate = sched.flowmod_fate
    sched.flowmod_fate = lambda switch: draws.append(switch) or fate(switch)
    bundles = l3.wire_all_pairs()
    net.run(until=net.sim.all_of(bundles))

    assert table_rows(net) == table_rows(net_a)
    assert ctrl.flow_mods_sent == sum(len(sw.table) for sw in net.switches())
    assert ctrl.flow_mods_lost > 0  # the plane bit
    assert ctrl.flow_mods_lost == sched.flowmods_lost
    assert ctrl.flow_mods_retried == ctrl.flow_mods_lost
    assert len(draws) == len(bundles) + ctrl.flow_mods_retried
    assert sorted(set(draws)) == sorted(sw.name for sw in net.switches())


def test_deploy_returns_before_the_fault_plan_runs():
    """Pre-wire runs until its bundles land, not until the heap drains: a
    fault plan attached at deploy time is still ahead of the caller."""
    sched = FaultSchedule(seed=1)
    sched.link_flap("p0e0", "p0a0", at_s=1.0, down_for_s=0.5)
    sched.rule_install_loss(at_s=0.0, duration_s=5.0, loss_prob=0.3)
    dep = deploy_mic(faults=sched, pre_wire=True)
    link = dep.net.link_between("p0e0", "p0a0").forward

    assert dep.sim.now < 1.0
    assert link.up
    assert dep.ctrl.flow_mods_sent == sum(len(sw.table) for sw in dep.net.switches())
    dep.run(until=1.2)
    assert not link.up
    dep.run(until=1.6)
    assert link.up


def test_a_prewire_overflow_raises_naming_the_switch_and_lands_what_fits():
    params = NetParams(switch_table_capacity=55)  # edge switches need 58
    net_a, _ctrl, l3_a = _build(4, 0, params)
    wire_all_pairs_per_rule(l3_a)
    net_a.run()  # the oracle's failed installs have no waiter: silent
    net, _ctrl, l3 = _build(4, 0, params)
    bundles = l3.wire_all_pairs()

    with pytest.raises(TableFullError) as err:
        net.run(until=net.sim.all_of(bundles))
    full = {sw.name for sw in net.switches() if len(sw.table) == 55}
    assert 0 < len(full) < len(net.switches())
    switch, message = str(err.value).split(": ", 1)
    assert switch in full and message == "flow table full (55 entries)"
    # Entry ids differ: the bundles minted ids for the rules that did not fit.
    assert table_rows(net, with_ids=False) == table_rows(net_a, with_ids=False)


def test_deploy_and_testbed_raise_a_prewire_overflow():
    params = NetParams(switch_table_capacity=40)
    with pytest.raises(TableFullError, match=r"^p\d[ea]\d: flow table full"):
        deploy_mic(params=params, pre_wire=True)
    with pytest.raises(TableFullError, match=r"^p\d[ea]\d: flow table full"):
        Testbed.create(params=params)


def test_deploy_raises_a_prewire_bundle_that_never_lands():
    sched = FaultSchedule(seed=0)
    sched.rule_install_loss(at_s=0.0, duration_s=5.0, loss_prob=1.0,
                            switches=("p1a0",))
    with pytest.raises(InstallLostError, match="flow-mod to p1a0 lost 9 times"):
        deploy_mic(faults=sched, pre_wire=True)
