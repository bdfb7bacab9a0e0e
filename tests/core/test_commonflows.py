"""Tests for common-flow MPLS tagging (the CF category)."""

import pytest

from repro.core import CommonFlowTagger, MimicController
from repro.net import Network, fat_tree
from repro.obs import JourneyRecorder
from repro.sdn import Controller, L3ShortestPathApp
from repro.transport import TcpStack
from tests.journey_rows import channel_dst, link_headers


def build():
    net = Network(fat_tree(4), seed=3)
    ctrl = Controller(net)
    mic = ctrl.register(MimicController())
    l3 = ctrl.register(L3ShortestPathApp())
    return net, ctrl, mic, l3


def exchange(net, src="h1", dst="h16", port=80):
    client, server = TcpStack(net.host(src)), TcpStack(net.host(dst))
    listener = server.listen(port)
    done = {}

    def srv():
        conn = yield listener.accept()
        done["data"] = yield from conn.recv_exactly(4)

    def cli():
        conn = yield client.connect(server.host.ip, port)
        conn.send(b"ping")

    net.sim.process(srv())
    net.sim.process(cli())
    net.run(until=5.0)
    return done


def test_tagged_flow_still_delivers():
    net, ctrl, mic, l3 = build()
    l3.wire_pair("h1", "h16")
    net.run()
    tagger = CommonFlowTagger(mic)
    tagger.tag_all_recorded(l3)
    net.run()
    done = exchange(net)
    assert done["data"] == b"ping"


def test_interior_links_carry_cf_labels():
    net, ctrl, mic, l3 = build()
    l3.wire_pair("h1", "h16")
    net.run()
    tagger = CommonFlowTagger(mic)
    tagger.tag_all_recorded(l3)
    net.run()
    journey = JourneyRecorder.attach(net)
    exchange(net)
    path = l3.pair_paths[("h1", "h16")]
    interior_links = {
        f"{u}[{net.port(u, v)}]->{v}[{net.port(v, u)}]"
        for u, v in zip(path[1:-2], path[2:-1])
    }
    labeled = [
        header[4]
        for ev, header in link_headers(journey)
        if ev.where in interior_links and header[4] is not None
    ]
    assert labeled, "no CF-labeled packets observed on interior links"
    # Every observed label classifies as a *common* label only to the MC.
    for label in labeled:
        assert mic.planner.labels.is_common(label)


def test_hosts_never_see_labels():
    net, ctrl, mic, l3 = build()
    l3.wire_pair("h1", "h16")
    net.run()
    CommonFlowTagger(mic).tag_all_recorded(l3)
    net.run()
    journey = JourneyRecorder.attach(net)
    exchange(net)
    into_hosts = [
        header for ev, header in link_headers(journey)
        if channel_dst(ev.where).startswith("h")
    ]
    assert into_hosts, "no transmission into a host was recorded"
    for header in into_hosts:
        assert header[4] is None


def test_cf_and_mf_labels_disjoint():
    """A tagged common flow and an m-flow can never share a label class."""
    net, ctrl, mic, l3 = build()
    l3.wire_pair("h1", "h16")
    net.run()
    tagger = CommonFlowTagger(mic)
    tagger.tag_all_recorded(l3)
    net.run()

    def establish():
        yield from mic.establish("h2", "h15", service_port=80, n_mns=3)

    proc = net.sim.process(establish())
    net.run(until=proc)
    plan = next(iter(mic.channels.values())).flows[0]
    for addr in plan.fwd_addrs + plan.rev_addrs:
        if addr.mpls is not None:
            assert not mic.planner.labels.is_common(addr.mpls)


def test_pair_tagged_once():
    net, ctrl, mic, l3 = build()
    l3.wire_pair("h1", "h16")
    net.run()
    tagger = CommonFlowTagger(mic)
    first = tagger.tag_pair_path(l3.pair_paths[("h1", "h16")])
    again = tagger.tag_pair_path(l3.pair_paths[("h1", "h16")])
    assert first and not again


def test_short_path_rejected():
    net, ctrl, mic, l3 = build()
    tagger = CommonFlowTagger(mic)
    with pytest.raises(ValueError):
        tagger.tag_pair_path(["h1", "h2"])


def test_single_switch_path_noop():
    net, ctrl, mic, l3 = build()
    l3.wire_pair("h1", "h2")  # same edge switch
    net.run()
    tagger = CommonFlowTagger(mic)
    events = tagger.tag_pair_path(l3.pair_paths[("h1", "h2")])
    assert events == []  # nothing to hide between edges
