"""Tests for the one-call deployment facade and MC stats."""


from repro.core import deploy_mic
from repro.net import leaf_spine


def test_default_deployment_is_paper_fabric():
    dep = deploy_mic(seed=1)
    assert len(dep.net.topo.switches()) == 20
    assert len(dep.net.topo.hosts()) == 16
    assert dep.mic.live_channels == 0


def test_custom_topology():
    dep = deploy_mic(topo=leaf_spine(2, 2, 2), seed=1)
    assert len(dep.net.topo.hosts()) == 4


def test_pre_wire_installs_routes():
    dep = deploy_mic(pre_wire=True)
    assert dep.ctrl.flow_mods_sent > 0
    assert dep.ctrl.packet_in_count == 0


def test_end_to_end_through_facade():
    dep = deploy_mic(seed=2)
    server = dep.hidden_service("db", "h12", 5432)
    alice = dep.endpoint("h3")
    result = {}

    def client():
        stream = yield from alice.connect("db")
        stream.send(b"select 1")
        result["reply"] = yield from stream.recv_exactly(8)

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(8)
        stream.send(data.upper())

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(20.0)
    assert result["reply"] == b"SELECT 1"


def test_tag_common_flows_through_facade():
    dep = deploy_mic(seed=3)
    dep.l3.wire_pair("h1", "h16")
    dep.run()
    tagger = dep.tag_common_flows()
    assert ("h1", "h16") in tagger.tagged_pairs


def test_mic_kwargs_forwarded():
    dep = deploy_mic(mic_kwargs={"mn_strategy": "spread"})
    assert dep.mic.planner.mn_strategy == "spread"


class TestStats:
    def test_stats_empty(self):
        dep = deploy_mic(seed=4)
        s = dep.mic.stats()
        assert s["live_channels"] == 0
        assert s["rules_total"] == 0
        assert s["rules_max_per_switch"] == 0

    def test_stats_after_channels(self):
        dep = deploy_mic(seed=5)

        def go():
            yield from dep.mic.establish("h1", "h16", service_port=80, n_mns=3)
            yield from dep.mic.establish("h2", "h15", service_port=80,
                                         n_flows=2, n_mns=2)

        proc = dep.sim.process(go())
        dep.run(until=proc)
        s = dep.mic.stats()
        assert s["live_channels"] == 2
        assert s["live_flows"] == 3
        assert s["rules_total"] > 0
        assert s["switches_touched"] >= 4
        assert s["registry_keys"] > 0

    def test_footprint_cleared_on_teardown(self):
        dep = deploy_mic(seed=6)

        def go():
            return (yield from dep.mic.establish("h1", "h16", service_port=80))

        proc = dep.sim.process(go())
        dep.run(until=proc)
        dep.mic.teardown(proc.value.channel_id)
        dep.run_for(1.0)
        assert dep.mic.rule_footprint() == {}
