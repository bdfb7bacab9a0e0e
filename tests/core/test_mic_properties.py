"""Hypothesis-driven end-to-end properties of MIC.

These run whole channels under randomized parameters and assert the
paper's invariants hold for *every* configuration, not just the defaults.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MIC_PRIORITY, MicEndpoint, MicServer, MimicController
from repro.net import Network, fat_tree
from repro.sdn import Controller, L3ShortestPathApp

COMMON = dict(
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    max_examples=10,
)


def build(seed):
    net = Network(fat_tree(4), seed=seed)
    ctrl = Controller(net)
    mic = ctrl.register(MimicController())
    ctrl.register(L3ShortestPathApp())
    return net, mic


@settings(**COMMON)
@given(
    seed=st.integers(0, 10_000),
    n_flows=st.integers(1, 4),
    n_mns=st.integers(1, 5),
    src=st.integers(1, 8),
    dst=st.integers(9, 16),
)
def test_establish_invariants(seed, n_flows, n_mns, src, dst):
    """For any configuration: the grant hides the responder, flow IDs are
    unique, match keys never collide, and labels sit in MN-owned classes."""
    net, mic = build(seed)

    def go():
        return (
            yield from mic.establish(
                f"h{src}", f"h{dst}", service_port=80,
                n_flows=n_flows, n_mns=n_mns,
            )
        )

    proc = net.sim.process(go())
    net.run(until=proc)
    grant = proc.value

    resp_ip = net.host(f"h{dst}").ip
    init_ip = net.host(f"h{src}").ip
    assert grant.flow_count == n_flows
    for fg in grant.flows:
        assert fg.entry_ip not in (resp_ip, init_ip)

    channel = mic.channels[grant.channel_id]
    fids = [p.flow_id for p in channel.flows]
    assert len(set(fids)) == len(fids)

    for plan in channel.flows:
        assert len(plan.mn_positions) == n_mns
        for addr in plan.fwd_addrs[1:-1] + plan.rev_addrs[1:-1]:
            if addr.mpls is not None:
                owner = mic.planner.labels.owner_of(addr.mpls)
                assert owner in plan.mn_names

    for sw in net.switches():
        keys = [e.match.key() for e in sw.table.entries
                if e.priority == MIC_PRIORITY]
        assert len(keys) == len(set(keys))


@settings(**COMMON)
@given(
    seed=st.integers(0, 10_000),
    n_flows=st.integers(1, 3),
    n_mns=st.integers(2, 4),
    payload_len=st.integers(1, 5_000),
)
def test_data_integrity_any_configuration(seed, n_flows, n_mns, payload_len):
    """Bytes in == bytes out, both directions, for any channel shape."""
    net, mic = build(seed)
    rng = net.sim.rng("payload")
    payload = bytes(rng.getrandbits(8) for _ in range(payload_len))
    server = MicServer(net.host("h16"), 80)
    endpoint = MicEndpoint(net.host("h1"), mic)
    result = {}

    def client():
        stream = yield from endpoint.connect(
            "h16", service_port=80, n_flows=n_flows, n_mns=n_mns
        )
        stream.send(payload)
        result["echo"] = yield from stream.recv_exactly(payload_len)

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(payload_len)
        stream.send(data)

    net.sim.process(client())
    net.sim.process(srv())
    net.run(until=60.0)
    assert result.get("echo") == payload


@settings(**COMMON)
@given(seed=st.integers(0, 10_000), n_channels=st.integers(2, 6))
def test_teardown_restores_clean_state(seed, n_channels):
    """Establish-then-teardown leaves no residue for any channel count."""
    net, mic = build(seed)

    def go():
        grants = []
        for i in range(n_channels):
            g = yield from mic.establish(
                f"h{(i % 8) + 1}", f"h{16 - (i % 8)}", service_port=80
            )
            grants.append(g)
        return grants

    proc = net.sim.process(go())
    net.run(until=proc)
    for g in proc.value:
        mic.teardown(g.channel_id)
    net.run(until=net.sim.now + 1.0)
    assert mic.live_channels == 0
    assert mic.planner.flow_ids.live_count == 0
    assert mic.planner.registry.total_keys() == 0
    for sw in net.switches():
        assert not any(e.priority == MIC_PRIORITY for e in sw.table.entries)
