"""Injected faults drive real state: flaps repair flows, crashes wipe and
resync tables."""

from repro.core import deploy_mic
from repro.faults import FaultSchedule
from repro.net import fat_tree
from repro.net.switch import SwitchDownError


def _establish(dep, a="h1", b="h16", n_mns=3):
    result = {}

    def go():
        result["grant"] = yield from dep.mic.establish(
            a, b, service_port=80, n_mns=n_mns
        )

    proc = dep.sim.process(go())
    dep.net.run(until=proc)
    return result["grant"]


def test_scheduled_flap_triggers_repair_and_heals():
    dep = deploy_mic(fat_tree(4), seed=3)
    grant = _establish(dep)
    plan = dep.mic.channels[grant.channel_id].flows[0]
    mid = len(plan.walk) // 2
    edge = (plan.walk[mid - 1], plan.walk[mid])

    t0 = dep.sim.now
    sched = FaultSchedule()
    sched.link_flap(*edge, at_s=t0 + 0.1, down_for_s=0.2)
    sched.attach(dep.net, dep.ctrl)
    dep.run_for(0.2)

    new_plan = dep.mic.channels[grant.channel_id].flows[0]
    hops = list(zip(new_plan.walk, new_plan.walk[1:]))
    assert edge not in hops and tuple(reversed(edge)) not in hops
    assert dep.mic.repairs_completed == 1

    dep.run_for(0.3)  # past the heal
    link = dep.net.link_between(*edge)
    assert link.forward.up and link.reverse.up


def test_periodic_flap_fires_each_cycle():
    dep = deploy_mic(fat_tree(4), seed=3)
    t0 = dep.sim.now
    sched = FaultSchedule()
    sched.link_flap("c1", "p0a0", at_s=t0 + 0.1, down_for_s=0.1,
                    period_s=0.5, count=3)
    sched.attach(dep.net, dep.ctrl)
    assert sched.injected_events == 6
    states = []
    link = dep.net.link_between("c1", "p0a0")
    for probe_at in (0.15, 0.3, 0.65, 0.8, 1.15, 1.3):
        dep.net.run(until=t0 + probe_at)
        states.append(link.forward.up)
    assert states == [False, True, False, True, False, True]


def test_switch_crash_wipes_and_reboot_resyncs():
    dep = deploy_mic(fat_tree(4), seed=3)
    grant = _establish(dep)
    plan = dep.mic.channels[grant.channel_id].flows[0]
    mn = plan.walk[plan.mn_positions[0]]
    sw = dep.net.switch(mn)
    rules_before = len(list(sw.table.iter_entries()))
    assert rules_before > 0

    t0 = dep.sim.now
    sched = FaultSchedule()
    sched.switch_crash(mn, at_s=t0 + 0.1, down_for_s=0.2)
    sched.attach(dep.net, dep.ctrl)

    dep.net.run(until=t0 + 0.2)
    assert not sw.alive
    assert sw.crashes == 1
    assert len(list(sw.table.iter_entries())) == 0  # crash wiped the table

    dep.net.run(until=t0 + 0.6)
    assert sw.alive
    assert dep.mic.resyncs_completed == 1
    # The MC re-drove this flow's rules from stored intent: the plan still
    # verifies end to end against the installed tables.
    report = dep.mic.verify()
    assert not report.violations
    # ... and the plan itself was untouched (resync, not repair).
    assert dep.mic.channels[grant.channel_id].flows[0] is plan


def test_dead_switch_blackholes_and_refuses_installs():
    dep = deploy_mic(fat_tree(4), seed=3)
    sw = dep.net.switch("p0e0")
    dep.net.set_switch_state("p0e0", False)
    h1 = dep.net.host("h1")
    h1.send_packet(h1.make_packet(dep.net.host("h2").ip, dport=80,
                                  payload_size=64))
    dep.run_for(0.1)
    assert sw.packets_dropped_dead > 0

    failed = {}

    def try_install():
        from repro.net import FlowEntry, Match, Output

        try:
            yield sw.install_many_later(
                [FlowEntry(Match(ip_dst=h1.ip), [Output(1)])], delay=0.001
            )
        except SwitchDownError:
            failed["yes"] = True

    dep.sim.process(try_install())
    dep.run_for(0.1)
    assert failed.get("yes")
