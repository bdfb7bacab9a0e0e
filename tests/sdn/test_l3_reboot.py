"""Reactive L3 wiring racing a switch reboot.

The app hears of a reboot ``detection_latency_s`` after it happened.  A
packet that misses on the wiped table in between makes ``wire_pair``
install that pair's hop rules on the *already rebooted* chassis; the reboot
re-install must not then send the same rules a second time (the
``duplicate-rule`` warnings the chaos runs used to end with).
"""

from collections import Counter

import pytest

from repro.faults import FaultSchedule
from repro.net import Network, linear
from repro.sdn import Controller, L3ShortestPathApp


def _times(net, app, method):
    """The instants ``app.<method>`` runs, wrapped on the instance."""
    times, inner = [], getattr(app, method)

    def watched(*args):
        times.append(net.sim.now)
        return inner(*args)

    setattr(app, method, watched)
    return times


def _ping(net, src, dst):
    host = net.host(src)
    host.send_packet(host.make_packet(net.host(dst).ip, dport=80, payload_size=64))


@pytest.mark.parametrize("extra_delay_s", (0.0, 0.002))
def test_pair_wired_between_reboot_and_its_detection_is_not_installed_twice(
    extra_delay_s,
):
    """``extra_delay_s`` > 0 delays every flow-mod past the detection: the
    hop install is then still *in flight* when the reboot is heard."""
    net = Network(linear(3), seed=0)
    ctrl = Controller(net, detection_latency_s=0.002)
    l3 = ctrl.register(L3ShortestPathApp())
    packet_ins = _times(net, l3, "on_packet_in")
    switch_events = _times(net, l3, "on_switch_event")
    if extra_delay_s:
        sched = FaultSchedule(seed=0)
        sched.rule_install_loss(0.0, 10.0, delay_prob=1.0, extra_delay_s=extra_delay_s)
        sched.attach(net, ctrl)
    s2 = net.switch("s2")

    _ping(net, "h1", "h3")  # wired before the crash, through s2
    net.run(until=0.1)
    assert len(list(s2.table.iter_entries())) == 2

    net.set_switch_state("s2", False)
    net.run(until=0.2)
    assert not list(s2.table.iter_entries())
    net.set_switch_state("s2", True)
    net.sim.call_later(0.0001, _ping, net, "h2", "h3")  # misses on the wiped s2
    net.run(until=0.3)

    wired, heard = packet_ins[-1], switch_events[-1]
    assert 0.2 < wired < heard == pytest.approx(0.202)  # the race happened
    rules = Counter((e.match, e.priority) for e in s2.table.iter_entries())
    assert max(rules.values()) == 1, [str(m) for (m, _p), n in rules.items() if n > 1]
    ips = {h: net.host(h).ip for h in ("h1", "h2", "h3")}
    assert {(m.ip_src, m.ip_dst) for m, _p in rules} == {
        (ips["h1"], ips["h3"]), (ips["h3"], ips["h1"]),  # re-installed
        (ips["h2"], ips["h3"]), (ips["h3"], ips["h2"]),  # landed once
    }


def test_pair_wired_into_a_dead_chassis_is_still_reinstalled_on_reboot():
    """A hop install that reached the switch while it was down failed, so
    the reboot re-install must send it."""
    net = Network(linear(3), seed=0)
    ctrl = Controller(net, detection_latency_s=0.002)
    l3 = ctrl.register(L3ShortestPathApp())
    net.set_switch_state("s2", False)
    net.run(until=0.1)
    l3.wire_pair("h1", "h3")  # s2's hops fail: chassis down
    net.run(until=0.2)
    net.set_switch_state("s2", True)
    net.run(until=0.3)
    assert len(list(net.switch("s2").table.iter_entries())) == 2


def test_prewire_bundle_landed_between_reboot_and_its_detection_is_not_resent():
    """A pre-wire bundle sent while the app still believes a switch down
    lands on the rebooted chassis; the reboot re-install skips its rules."""
    net = Network(linear(3), seed=0)
    ctrl = Controller(net, detection_latency_s=0.002)
    l3 = ctrl.register(L3ShortestPathApp())
    net.set_switch_state("s2", False)
    net.run(until=0.1)
    net.set_switch_state("s2", True)  # heard at 0.102; the bundle lands at 0.101
    l3.wire_all_pairs()
    net.run(until=0.2)
    rules = Counter((e.match, e.priority) for e in net.switch("s2").table.iter_entries())
    assert len(rules) == 6 and max(rules.values()) == 1
