"""Property tests: injected faults are always caught; real rule sets are
always clean.

Two directions of the same coin:

* soundness-in-practice — for randomly constructed shadow/overlap/loop
  configurations, the verifier always raises the corresponding violation;
* no false positives — for random batches of real MimicController channels
  on the paper's fat-tree, verification is always clean and the installed
  rules agree key-for-key with the runtime collision registry.
"""

from hypothesis import given, settings, strategies as st

from analysis_helpers import build, establish_batch

from repro.analysis import verify_network
from repro.analysis.verifier import match_key
from repro.core import MIC_PRIORITY
from repro.core.controller import DECOY_DROP_PRIORITY
from repro.net import Network, linear
from repro.net.addresses import IPv4Addr
from repro.net.flowtable import Drop, FlowEntry, Match, Output, SetField
from repro.net.topology import Topology

_IPS = [IPv4Addr.parse(f"10.7.0.{i}") for i in range(1, 5)]
_FIELDS = ("ip_src", "ip_dst", "sport", "dport", "mpls")

_field_values = {
    "ip_src": st.sampled_from(_IPS),
    "ip_dst": st.sampled_from(_IPS),
    "sport": st.integers(1, 4),
    "dport": st.integers(1, 4),
    "mpls": st.sampled_from([Match.NO_MPLS, 11, 12]),
}


@st.composite
def general_and_specific(draw):
    """A match plus a strictly-more-specific refinement of it."""
    n_general = draw(st.integers(0, len(_FIELDS) - 1))
    general_fields = draw(
        st.permutations(_FIELDS).map(lambda p: p[:n_general])
    )
    general = {f: draw(_field_values[f]) for f in general_fields}
    free = [f for f in _FIELDS if f not in general_fields]
    extra_fields = draw(
        st.lists(st.sampled_from(free), min_size=1, unique=True)
    )
    specific = dict(general)
    for f in extra_fields:
        specific[f] = draw(_field_values[f])
    return Match(**general), Match(**specific)


@given(pair=general_and_specific())
@settings(max_examples=50, deadline=None)
def test_injected_shadow_always_flagged(pair):
    general, specific = pair
    net = Network(linear(2, 1), seed=0)
    table = net.switch("s1").table
    out = net.port("s1", "s2")
    table.install(FlowEntry(general, [Drop()], priority=20))
    table.install(FlowEntry(specific, [Output(out)], priority=10))
    report = verify_network(net, check_forwarding=False)
    assert report.by_kind("shadowed-rule"), report.format()


@given(pair=general_and_specific())
@settings(max_examples=50, deadline=None)
def test_injected_same_priority_overlap_always_flagged(pair):
    general, specific = pair
    net = Network(linear(2, 1), seed=0)
    table = net.switch("s1").table
    out = net.port("s1", "s2")
    table.install(FlowEntry(general, [Drop()], priority=10))
    table.install(FlowEntry(specific, [Output(out)], priority=10))
    report = verify_network(net, check_forwarding=False)
    assert report.by_kind("overlap") or report.by_kind("duplicate-rule"), (
        report.format()
    )


@given(
    ring_size=st.integers(3, 5),
    ip_pair=st.permutations(_IPS).map(lambda p: p[:2]),
    rewrite_at=st.integers(0, 4),
)
@settings(max_examples=25, deadline=None)
def test_injected_rewrite_ring_always_flagged(ring_size, ip_pair, rewrite_at):
    """Any all-the-way-around forwarding ring loops, with or without a
    rewrite pair hiding the cycle from port-level analysis."""
    ip_a, ip_b = ip_pair
    topo = Topology("ring")
    names = [topo.add_switch(f"s{i}") for i in range(ring_size)]
    topo.add_host("hA")
    topo.add_link("hA", names[0])
    for i in range(ring_size):
        topo.add_link(names[i], names[(i + 1) % ring_size])
    net = Network(topo, seed=0)
    rewrite_at %= ring_size
    rewrite_back = (rewrite_at + 1) % ring_size
    for i, name in enumerate(names):
        nxt = names[(i + 1) % ring_size]
        if i == rewrite_at:
            actions = [SetField("ip_dst", ip_b), Output(net.port(name, nxt))]
            match = Match(ip_dst=ip_a)
        elif i == rewrite_back:
            actions = [SetField("ip_dst", ip_a), Output(net.port(name, nxt))]
            match = Match(ip_dst=ip_b)
        else:
            actions = [Output(net.port(name, nxt))]
            match = Match(ip_dst=ip_a)
        net.switch(name).table.install(FlowEntry(match, actions, priority=10))
    report = verify_network(net)
    assert report.by_kind("loop"), report.format()


_PAIR_POOL = [
    ("h1", "h16"), ("h5", "h12"), ("h2", "h9"), ("h6", "h15"),
    ("h3", "h13"), ("h7", "h10"),
]


@given(
    seed=st.integers(0, 2**16),
    n_channels=st.integers(1, 3),
    n_flows=st.integers(1, 2),
    n_mns=st.integers(1, 3),
    decoys=st.integers(0, 1),
)
@settings(max_examples=8, deadline=None)
def test_random_mic_batches_always_verify_clean(
    seed, n_channels, n_flows, n_mns, decoys
):
    net, ctrl, mic = build(seed=seed)
    establish_batch(
        net, mic, _PAIR_POOL[:n_channels],
        n_flows=n_flows, n_mns=n_mns, decoys=decoys,
    )
    report = verify_network(net, mic=mic)
    assert report.ok, report.format()
    assert report.checked_flows == n_channels * n_flows

    # Static tables and runtime registry must agree key-for-key: every
    # installed MIC rule's match key is owned by exactly the flow (cookie)
    # that installed it.
    for sw in net.switches():
        for entry in sw.table.entries:
            if entry.priority not in (MIC_PRIORITY, DECOY_DROP_PRIORITY):
                continue
            owner = mic.planner.registry.owner(sw.name, match_key(entry.match))
            assert owner is not None
            assert owner.endswith(f"/c{entry.cookie}")
