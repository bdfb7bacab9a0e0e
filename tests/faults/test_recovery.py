"""Recovery semantics: parking on no-path, unparking on heal, and
concurrent repairs that never leak registry state or duplicate cookies."""

from repro.core import deploy_mic
from repro.faults import EchoChannels
from repro.net import fat_tree


def _deploy_channels(n, seed=3, n_mns=3, decoys=1):
    """MIC on fat_tree(4) with ``n`` echo channels h_i <-> h_(17-i), each
    probed three times 0.1 s apart once started.

    Returns ``(dep, echo, channel_ids)`` with the echo servers already
    looping.
    """
    dep = deploy_mic(fat_tree(4), seed=seed)
    echo = EchoChannels([(0.1, 0)] * n, horizon_s=0.25)
    return dep, echo, echo.establish(dep, n_mns, decoys)


def _probe_all(echo):
    """Probe every channel; return its stats once the replies are in."""
    probes = echo.start()
    echo.dep.run_for(echo.horizon_s + 2.0)
    return probes


def _live_owners(dep):
    return {
        f"ch{cid}/c{flow.cookie}"
        for cid, ch in dep.mic.channels.items()
        for flow in ch.flows
    }


def _assert_registry_consistent(dep):
    """Every key on every switch belongs to a currently-live flow."""
    live = _live_owners(dep)
    for sw in dep.net.switches():
        for key in dep.mic.registry.keys_on(sw.name):
            owner = dep.mic.registry.owner(sw.name, key)
            assert owner in live, f"leaked registry owner {owner} on {sw.name}"


def test_no_surviving_path_parks_then_recovers():
    dep, echo, channel_ids = _deploy_channels(1)
    plan = dep.mic.channels[channel_ids[0]].flows[0]
    # The responder's access link is the only way in: repair cannot find a
    # surviving walk, so the flow parks instead of killing the sim.
    access = (plan.walk[-2], plan.walk[-1])
    dep.net.set_link_state(*access, False)
    dep.run_for(1.0)

    assert dep.mic.parked_flows == 1
    assert dep.mic.repairs_parked == 1
    assert dep.mic.repairs_completed == 0

    # Still parked after more retry rounds — and the sim is healthy.
    dep.run_for(2.0)
    assert dep.mic.parked_flows == 1

    dep.net.set_link_state(*access, True)
    dep.run_for(3.0)
    assert dep.mic.parked_flows == 0
    assert dep.mic.repairs_completed >= 1
    assert not dep.mic.verify().violations

    (probe,) = _probe_all(echo)
    assert probe.answered == probe.sent == 3
    _assert_registry_consistent(dep)


def test_simultaneous_failures_across_channels():
    dep, echo, channel_ids = _deploy_channels(3)
    # Interior (switch-switch) hop of each of the first two walks; both go
    # down at the same instant, so the two repairs run concurrently.
    edges = []
    for cid in channel_ids[:2]:
        walk = dep.mic.channels[cid].flows[0].walk
        mid = len(walk) // 2
        edges.append((walk[mid - 1], walk[mid]))
    assert edges[0] != edges[1]
    for a, b in edges:
        dep.net.set_link_state(a, b, False)
    dep.run_for(3.0)

    assert dep.mic.repairs_in_flight == 0
    assert dep.mic.parked_flows == 0
    assert dep.mic.repairs_completed >= 2
    dead = {frozenset(e) for e in edges}
    for cid in channel_ids:
        for flow in dep.mic.channels[cid].flows:
            hops = {frozenset(h) for h in zip(flow.walk, flow.walk[1:])}
            assert not (hops & dead), f"channel {cid} still routes a dead edge"

    cookies = [
        flow.cookie
        for cid in channel_ids
        for flow in dep.mic.channels[cid].flows
    ]
    assert len(cookies) == len(set(cookies)), "duplicate cookies after repair"
    _assert_registry_consistent(dep)
    assert not dep.mic.verify().violations

    for probe in _probe_all(echo):
        assert probe.answered == probe.sent == 3, f"channel {probe.channel_id} lost probes"


def test_second_failure_mid_repair():
    dep, echo, channel_ids = _deploy_channels(2)
    cid = channel_ids[0]
    walk = dep.mic.channels[cid].flows[0].walk
    mid = len(walk) // 2
    first = (walk[mid - 1], walk[mid])
    dep.net.set_link_state(*first, False)
    # Before the repair can finish (removal barrier + installs take several
    # flow-install delays), kill a second interior hop of the same walk.
    dep.run_for(dep.net.params.flow_install_delay_s / 2)
    assert dep.mic.repairs_in_flight == 1
    second = (walk[mid], walk[mid + 1])
    dep.net.set_link_state(*second, False)
    dep.run_for(3.0)

    assert dep.mic.repairs_in_flight == 0
    assert dep.mic.parked_flows == 0
    dead = {frozenset(first), frozenset(second)}
    for flow in dep.mic.channels[cid].flows:
        hops = {frozenset(h) for h in zip(flow.walk, flow.walk[1:])}
        assert not (hops & dead)

    cookies = [
        flow.cookie
        for c in channel_ids
        for flow in dep.mic.channels[c].flows
    ]
    assert len(cookies) == len(set(cookies))
    _assert_registry_consistent(dep)
    assert not dep.mic.verify().violations

    for probe in _probe_all(echo):
        assert probe.answered == probe.sent == 3
