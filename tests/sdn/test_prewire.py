"""Proactive L3 wiring: one bundle per switch, against the per-rule oracle.

``wire_all_pairs`` plans every host pair as ``wire_pair`` does and sends
each switch its rules as one ``Controller.install_batch`` bundle.  The
oracle (``tests/sdn/prewire_oracle.py``) is the old rule-by-rule pre-wire;
without faults the two must leave identical tables and app state.
"""

import pytest

from repro.bench import Testbed
from repro.core import deploy_mic
from repro.faults import FaultSchedule
from repro.net import NetParams, Network, fat_tree
from repro.net.flowtable import TableFullError
from repro.sdn import Controller, L3ShortestPathApp
from repro.sdn.controller import InstallLostError
from tests.sdn.prewire_oracle import table_rows, wire_all_pairs_per_rule


def _build(k: int, seed: int, params=None):
    net = Network(fat_tree(k), params=params or NetParams(), seed=seed)
    ctrl = Controller(net)
    l3 = ctrl.register(L3ShortestPathApp())
    return net, ctrl, l3


def _app_state(l3) -> tuple:
    return l3.pair_paths, l3._pair_cookies, l3._installed_pairs


@pytest.mark.parametrize("k, seed", [(4, 0), (4, 1), (4, 7), (6, 0), (6, 3)])
def test_bundled_prewire_matches_the_per_rule_oracle(k, seed):
    net_a, ctrl_a, l3_a = _build(k, seed)
    net_a.run(until=net_a.sim.all_of(wire_all_pairs_per_rule(l3_a)))
    net_b, ctrl_b, l3_b = _build(k, seed)
    bundles = l3_b.wire_all_pairs()
    net_b.run(until=net_b.sim.all_of(bundles))

    assert len(bundles) == len(net_b.switches())  # every switch routes some pair
    assert table_rows(net_b) == table_rows(net_a)
    assert _app_state(l3_b) == _app_state(l3_a)
    assert ctrl_b.flow_mods_sent == ctrl_a.flow_mods_sent
    assert net_b.sim.now == net_a.sim.now
    assert not net_a.sim._heap and not net_b.sim._heap


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
