"""Recovery semantics: parking on no-path, unparking on heal, and
concurrent repairs that never leak registry state or duplicate cookies."""

from repro.core import deploy_mic
from repro.core.client import MicDatagramServer
from repro.net import fat_tree


def _deploy_channels(n, seed=3, n_mns=3, decoys=1):
    """MIC on fat_tree(4) with ``n`` datagram channels h_i <-> h_(17-i).

    Returns ``(dep, sockets, channel_ids, servers)`` with echo servers
    already looping.
    """
    dep = deploy_mic(fat_tree(4), seed=seed)
    sim = dep.sim
    pairs = [(f"h{i}", f"h{17 - i}", 7000 + i) for i in range(1, n + 1)]
    sockets = {}

    def serve(server):
        while True:
            dg = yield server.recv()
            server.reply(dg, dg.data)

    def establish(idx, a, b, port):
        sock = yield from dep.endpoint(a).connect_datagram(
            b, service_port=port, n_mns=n_mns, decoys=decoys
        )
        sockets[idx] = sock

    servers = []
    for idx, (a, b, port) in enumerate(pairs):
        srv = MicDatagramServer(dep.net.host(b), port)
        servers.append(srv)
        sim.process(serve(srv))
        sim.process(establish(idx, a, b, port))
    dep.run_for(5.0)
    assert len(sockets) == n, "establishment failed"
    channel_ids = [sockets[i].channel_id for i in range(n)]
    return dep, sockets, channel_ids, servers


def _probe_all(dep, sockets, rounds=3, gap_s=0.1):
    """Send ``rounds`` fresh probes on every socket; return answered/sent."""
    sent = {idx: 0 for idx in sockets}
    answered = {idx: 0 for idx in sockets}

    def pump(idx):
        for seq in range(rounds):
            sockets[idx].send(f"ping:{idx}:{seq}".encode())
            sent[idx] += 1
            yield dep.sim.timeout(gap_s)

    def drain(idx):
        while True:
            yield sockets[idx].recv()
            answered[idx] += 1

    for idx in sockets:
        dep.sim.process(pump(idx))
        dep.sim.process(drain(idx))
    dep.run_for(rounds * gap_s + 2.0)
    return sent, answered


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
    dep, sockets, channel_ids, _ = _deploy_channels(1)
    dep.net.attach_trace()
    plan = dep.mic.channels[channel_ids[0]].flows[0]
    # The responder's access link is the only way in: repair cannot find a
    # surviving walk, so the flow parks instead of killing the sim.
    access = (plan.walk[-2], plan.walk[-1])
    dep.net.set_link_state(*access, False)
    dep.run_for(1.0)

    assert dep.mic.parked_flows == 1
    assert dep.mic.repairs_parked == 1
    assert dep.mic.repairs_completed == 0
    assert any(r.category == "mic.park" for r in dep.net.trace.records)

    # Still parked after more retry rounds — and the sim is healthy.
    dep.run_for(2.0)
    assert dep.mic.parked_flows == 1

    dep.net.set_link_state(*access, True)
    dep.run_for(3.0)
    assert dep.mic.parked_flows == 0
    assert dep.mic.repairs_completed >= 1
    assert not dep.mic.verify().violations

    sent, answered = _probe_all(dep, sockets)
    assert answered[0] == sent[0] > 0
    _assert_registry_consistent(dep)


def test_simultaneous_failures_across_channels():
    dep, sockets, channel_ids, _ = _deploy_channels(3)
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

    sent, answered = _probe_all(dep, sockets)
    assert sent[0] > 0
    for idx in sockets:
        assert answered[idx] == sent[idx], f"channel {idx} lost probes"


def test_second_failure_mid_repair():
    dep, sockets, channel_ids, _ = _deploy_channels(2)
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

    sent, answered = _probe_all(dep, sockets)
    for idx in sockets:
        assert answered[idx] == sent[idx] > 0
