"""Acked installs: lost flow-mods are re-driven with timeout and backoff."""

import pytest

from repro.faults import FaultSchedule
from repro.net import (
    FlowEntry, Group, GroupEntry, Match, NetParams, Network, Output, fat_tree,
)
from repro.sdn import Controller
from repro.sdn.controller import InstallLostError
from tests.watchers import on_bundle


def _entry(net):
    return FlowEntry(Match(ip_dst=net.host("h1").ip), [Output(1)])


def _loss_schedule(net, ctrl, loss_prob=1.0, duration=0.05, seed=0, **kwargs):
    sched = FaultSchedule(seed=seed)
    sched.rule_install_loss(at_s=0.0, duration_s=duration, loss_prob=loss_prob,
                            **kwargs)
    sched.attach(net, ctrl)
    return sched


def test_lost_installs_are_retried_until_the_window_ends():
    net = Network(fat_tree(4), seed=0)
    ctrl = Controller(net, ack_timeout_s=0.004)
    sched = _loss_schedule(net, ctrl, loss_prob=1.0, duration=0.05)
    sw = net.switch("p0e0")
    done = ctrl.install_batch("p0e0", [_entry(net)])
    net.run(until=1.0)
    assert done.ok
    assert len(list(sw.table.iter_entries())) == 1  # landed exactly once
    assert ctrl.flow_mods_lost > 0
    assert ctrl.flow_mods_retried > 0
    assert sched.flowmods_lost == ctrl.flow_mods_lost


def test_retry_budget_exhaustion_fails_the_install_event():
    net = Network(fat_tree(4), seed=0)
    ctrl = Controller(net, ack_timeout_s=0.004, max_install_retries=2)
    _loss_schedule(net, ctrl, loss_prob=1.0, duration=60.0)
    result = {}

    def go():
        try:
            yield ctrl.install_batch("p0e0", [_entry(net)])
            result["outcome"] = "ok"
        except InstallLostError:
            result["outcome"] = "lost"

    net.sim.process(go())
    net.run(until=1.0)
    assert result["outcome"] == "lost"
    assert len(list(net.switch("p0e0").table.iter_entries())) == 0


def test_delay_fault_defers_but_does_not_lose():
    net = Network(fat_tree(4), seed=0)
    ctrl = Controller(net)
    _loss_schedule(net, ctrl, loss_prob=0.0, duration=10.0,
                   delay_prob=1.0, extra_delay_s=0.05)
    base = net.params.flow_install_delay_s
    done = ctrl.install_batch("p0e0", [_entry(net)])
    net.run(until=base + 0.01)
    assert not done.triggered  # still riding out the injected delay
    net.run(until=base + 0.06)
    assert done.ok
    assert ctrl.flow_mods_lost == 0


def test_loss_scope_spares_other_switches():
    net = Network(fat_tree(4), seed=0)
    ctrl = Controller(net, ack_timeout_s=0.004)
    sched = FaultSchedule(seed=0)
    sched.rule_install_loss(at_s=0.0, duration_s=10.0, loss_prob=1.0,
                            switches=("p0e0",))
    sched.attach(net, ctrl)
    clean = ctrl.install_batch("p0e1", [_entry(net)])
    net.run(until=0.01)
    assert clean.ok
    assert ctrl.flow_mods_lost == 0


def _bundle(net, cookie=7):
    """Two rules, the second pointing at the group that rides with them."""
    group = GroupEntry(group_id=1, buckets=[[Output(1)], [Output(2)]], cookie=cookie)
    entries = [
        FlowEntry(Match(ip_dst=net.host("h1").ip), [Output(1)], cookie=cookie),
        FlowEntry(Match(ip_dst=net.host("h2").ip), [Group(1)], cookie=cookie),
    ]
    return entries, [group]


def test_a_bundle_draws_one_fate_and_is_retried_as_a_unit():
    net = Network(fat_tree(4), seed=0)
    ctrl = Controller(net, ack_timeout_s=0.004)
    sched = _loss_schedule(net, ctrl, loss_prob=1.0, duration=0.003, seed=5)
    sw = net.switch("p0a0")
    group_seen_at_flowmod = []
    on_bundle(net, lambda switch, entry: group_seen_at_flowmod.append(
        (switch.name, 1 in switch.table.groups)
    ))
    entries, groups = _bundle(net)
    done = ctrl.install_batch("p0a0", entries, groups)
    net.run(until=1.0)
    assert done.ok
    # one control message: one fate draw per attempt (lost once, then clean),
    # one lost attempt, one retry -- not one per entry or per group
    assert (sched.flowmods_lost, ctrl.flow_mods_lost, ctrl.flow_mods_retried) == (1, 1, 1)
    assert ctrl.flow_mods_sent == 2  # entries only, as before bundles
    # landed once, the group already present when the first rule landed
    assert group_seen_at_flowmod == [("p0a0", True), ("p0a0", True)]
    assert len(list(sw.table.iter_entries())) == 2 and list(sw.table.groups) == [1]


def test_a_down_switch_applies_neither_part_of_a_bundle():
    net = Network(fat_tree(4), seed=0)
    ctrl = Controller(net)
    sw = net.switch("p0a0")
    sw.crash()
    done = ctrl.install_batch("p0a0", *_bundle(net))
    net.run(until=0.1)
    assert done.triggered and not done.ok
    sw.reboot()
    assert not sw.table.groups and not list(sw.table.iter_entries())


def test_table_full_mid_bundle_is_cleared_by_cookie_groups_included():
    net = Network(fat_tree(4), params=NetParams(switch_table_capacity=1), seed=0)
    ctrl = Controller(net)
    sw = net.switch("p0a0")
    done = ctrl.install_batch("p0a0", *_bundle(net, cookie=7))
    net.run(until=0.1)
    assert not done.ok  # the second rule did not fit ...
    assert list(sw.table.groups) == [1]  # ... after the group and one rule had
    assert len(list(sw.table.iter_entries())) == 1
    ctrl.remove_by_cookie("p0a0", 7)
    net.run(until=0.2)
    assert not sw.table.groups and not list(sw.table.iter_entries())


def test_partition_blocks_packet_ins():
    net = Network(fat_tree(4), seed=0)
    ctrl = Controller(net)
    sched = FaultSchedule()
    sched.control_partition("p0e0", at_s=0.0, duration_s=10.0)
    sched.attach(net, ctrl)
    h1 = net.host("h1")
    # no rules anywhere: the first packet punts to the controller, but the
    # partition swallows the packet-in
    h1.send_packet(h1.make_packet(net.host("h2").ip, dport=80, payload_size=64))
    net.run(until=0.1)
    assert ctrl.packet_ins_blocked > 0
    assert ctrl.packet_in_count == 0


def test_same_seed_same_fates():
    def run(seed):
        net = Network(fat_tree(4), seed=0)
        ctrl = Controller(net, ack_timeout_s=0.004)
        sched = _loss_schedule(net, ctrl, loss_prob=0.5, duration=10.0,
                               seed=seed)
        for _ in range(16):
            ctrl.install_batch("p0e0", [_entry(net)])
        net.run(until=2.0)
        return (ctrl.flow_mods_lost, ctrl.flow_mods_retried,
                sched.flowmods_lost)

    assert run(3) == run(3)
    with pytest.raises(AssertionError):
        assert run(3) == run(4)
