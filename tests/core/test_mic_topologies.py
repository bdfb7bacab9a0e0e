"""MIC across topologies, including the paper's Fig 2 walkthrough."""


from repro.core import MicEndpoint, MicServer, MimicController
from repro.net import Network, bcube, fat_tree, leaf_spine, linear
from repro.obs import JourneyRecorder
from repro.sdn import Controller, L3ShortestPathApp
from tests.journey_rows import events


def build(topo, seed=0):
    net = Network(topo, seed=seed)
    ctrl = Controller(net)
    mic = ctrl.register(MimicController())
    ctrl.register(L3ShortestPathApp())
    return net, ctrl, mic


def roundtrip(net, mic, src, dst, payload=b"papers", n_mns=3, **kw):
    server = MicServer(net.host(dst), 80)
    endpoint = MicEndpoint(net.host(src), mic)
    out = {}

    def client():
        stream = yield from endpoint.connect(dst, service_port=80,
                                             n_mns=n_mns, **kw)
        stream.send(payload)
        out["reply"] = yield from stream.recv_exactly(len(payload))

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(len(payload))
        stream.send(data[::-1])

    net.sim.process(client())
    net.sim.process(srv())
    net.run(until=30.0)
    return out


class TestFig2Linear:
    """The paper's Fig 2: Alice — S1 — S2 — S3 — Bob, every switch an MN."""

    def test_walkthrough(self):
        net, ctrl, mic = build(linear(3, hosts_per_switch=1))
        out = roundtrip(net, mic, "h1", "h3", n_mns=3)
        assert out["reply"] == b"srepap"
        plan = next(iter(mic.channels.values())).flows[0]
        # All three chain switches act as MNs.
        assert plan.mn_names == ["s1", "s2", "s3"] or sorted(
            set(plan.mn_names)
        ) == ["s1", "s2", "s3"]

    def test_addresses_change_at_every_mn(self):
        """Fig 2's property: each hop carries a different address pair, and
        the last hop restores the real destination."""
        net, ctrl, mic = build(linear(3, hosts_per_switch=1))
        roundtrip(net, mic, "h1", "h3", n_mns=3)
        plan = next(iter(mic.channels.values())).flows[0]
        addrs = plan.fwd_addrs
        # Every MN rewrites: consecutive segments differ as full m-addresses
        # (in a 3-host topology the IP pool is tiny, but ports/labels always
        # distinguish the segments — Fig 2's "P1..P4 differ" property).
        tuples = [(a.src_ip, a.dst_ip, a.sport, a.dport, a.mpls) for a in addrs]
        assert all(x != y for x, y in zip(tuples, tuples[1:]))
        assert addrs[0].src_ip == net.host("h1").ip  # P1 src is real Alice
        assert addrs[-1].dst_ip == net.host("h3").ip  # P4 dst is real Bob
        assert addrs[-1].src_ip != net.host("h1").ip  # src stays mimic


class TestLeafSpine:
    def test_roundtrip(self):
        net, ctrl, mic = build(leaf_spine(spines=2, leaves=4, hosts_per_leaf=2))
        out = roundtrip(net, mic, "h1", "h8", n_mns=2)
        assert out["reply"] == b"srepap"

    def test_collision_freedom_many_channels(self):
        net, ctrl, mic = build(leaf_spine(spines=2, leaves=4, hosts_per_leaf=2))

        def many():
            for i in range(1, 5):
                yield from mic.establish(f"h{i}", f"h{9 - i}", service_port=80,
                                         n_mns=2)

        proc = net.sim.process(many())
        net.run(until=proc)
        from repro.core import MIC_PRIORITY

        for sw in net.switches():
            keys = [e.match.key() for e in sw.table.entries
                    if e.priority == MIC_PRIORITY]
            assert len(keys) == len(set(keys))


class TestBCube:
    def test_roundtrip(self):
        net, ctrl, mic = build(bcube(4, 1))
        out = roundtrip(net, mic, "h1", "h16", n_mns=2)
        assert out["reply"] == b"srepap"

    def test_server_centric_observer_sees_no_pair(self):
        """BCube is the paper's compromised-server example topology; even
        there, no mid-path switch links the endpoints."""
        net, ctrl, mic = build(bcube(4, 1))
        journey = JourneyRecorder.attach(net)
        roundtrip(net, mic, "h1", "h16", n_mns=2)
        real = {str(net.host("h1").ip), str(net.host("h16").ip)}
        plan = next(iter(mic.channels.values())).flows[0]
        first_mn, last_mn = plan.mn_names[0], plan.mn_names[-1]
        examined = 0
        for ev in events(journey, "switch.egress"):
            if ev.where in (first_mn, last_mn):
                continue
            assert set(ev["header"][:2]) != real
            examined += 1
        assert examined, "no interior egress was recorded"


class TestBigFatTree:
    def test_k6_fat_tree_roundtrip(self):
        net, ctrl, mic = build(fat_tree(6))
        out = roundtrip(net, mic, "h1", "h54", n_mns=4)
        assert out["reply"] == b"srepap"
