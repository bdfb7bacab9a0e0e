"""The serialized CPU model's flow-mod charge (``MimicController._send``).

Under ``cpu_model="serialized"`` a bundle takes the owning shard's CPU,
holds it ``flowmod_cpu_s`` per mod, releases it and goes to
``Controller.install_batch``; the event ``_send`` returned carries what
the send did.  The charge is a chain of calls with no process of its own,
so every way out of it — the send raising at once, the bundle landing, the
bundle failing on the switch — must leave the CPU free and book the charge
exactly once per bundle.  One establish dispatches a pinned number of heap
calls: the chain adds none beyond its first link.
"""

import pytest

from repro.core import deploy_mic
from repro.net import fat_tree, ip
from repro.net.flowtable import Drop, FlowEntry, Match, TableFullError
from repro.net.switch import SwitchDownError

from tests.watchers import step_log

COST = 100e-6
SWITCH = "p0e0"


def _deployment():
    return deploy_mic(
        fat_tree(4), seed=0,
        mic_kwargs={"cpu_model": "serialized", "flowmod_cpu_s": COST},
    )


def _rule(n):
    return FlowEntry(Match(ip_dst=ip(f"10.9.9.{n}")), [Drop()], priority=5, cookie=0x77)


def _send_two(dep):
    """Two one-rule bundles to one switch, the second queued behind the
    first on the owner's CPU; returns the owner, the events and the
    instants they fired."""
    mic = dep.mic
    owner = mic.owner_of_switch(SWITCH)
    fired = []
    done = [mic._send(owner, SWITCH, [_rule(n)], []) for n in (1, 2)]
    for ev in done:
        ev.callbacks.append(lambda ev: fired.append(dep.sim.now))
    dep.run_for(1.0)
    return owner, done, fired


def _assert_charged_once_and_released(owner):
    assert owner.cpu.in_use == 0 and owner.cpu.queued == 0
    assert owner.cpu_busy_s == COST + COST


def test_landed_bundles_succeed_in_cpu_order():
    dep = _deployment()
    owner, done, fired = _send_two(dep)
    assert all(ev.processed and ev.ok for ev in done)
    delay = dep.net.params.flow_install_delay_s
    assert fired == [COST + delay, COST + COST + delay]
    assert len(dep.net.switch(SWITCH).table) == 2
    _assert_charged_once_and_released(owner)


def test_a_send_that_raises_at_once_fails_its_event(monkeypatch):
    dep = _deployment()
    refused = RuntimeError("control channel closed")

    def install_batch(*_args, **_kwargs):
        raise refused

    monkeypatch.setattr(dep.ctrl, "install_batch", install_batch)
    owner, done, fired = _send_two(dep)
    assert [ev.ok for ev in done] == [False, False]
    assert all(ev.value is refused for ev in done)
    assert fired == [COST, COST + COST]  # right after each CPU charge
    _assert_charged_once_and_released(owner)


@pytest.mark.parametrize("fault, error", [
    ("table-full", TableFullError),
    ("switch-down", SwitchDownError),
])
def test_a_bundle_the_switch_refuses_fails_its_event(fault, error):
    dep = _deployment()
    sw = dep.net.switch(SWITCH)
    if fault == "table-full":
        sw.table.max_entries = len(sw.table)
    else:
        sw.crash()
    owner, done, _fired = _send_two(dep)
    assert [ev.ok for ev in done] == [False, False]
    assert all(isinstance(ev.value, error) for ev in done)
    _assert_charged_once_and_released(owner)


def test_one_serialized_establish_dispatches_the_pinned_count():
    """45 heap calls when each bundle ran as a process: the chain drops
    each process's completion event (nothing waited on it), six here, and
    its first link takes the process start's place."""
    dep = _deployment()
    log = step_log(dep.sim)
    proc = dep.sim.process(
        dep.mic.establish("h1", "h16", service_port=80, n_mns=3, decoys=1)
    )
    dep.net.run(until=proc)
    assert proc.value.flows
    assert len(log) == 39
    starts = [q for _when, _seq, q in log if q.endswith("_send.<locals>.start")]
    installs = [q for _when, _seq, q in log if q == "Switch._install_now"]
    assert len(starts) == len(installs) == 6
