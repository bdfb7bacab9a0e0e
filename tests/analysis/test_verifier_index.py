"""The indexed, memoised verifier against the scans it replaced.

``verifier_oracle.py`` keeps the linear ``candidate_entries`` /
``winner_entry``, the all-pairs table check and the memo-less loop DFS;
exact report equality with it — violation order and message text included —
is the contract of :class:`repro.analysis.symbolic.CandidateIndex`, the
shared clean-state memo of ``verify_forwarding`` and the hash join of
``verify_tables``.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import verifier_oracle as oracle
from analysis_helpers import build, establish_batch
from test_verifier_units import ring_net

from repro.analysis import invariants, symbolic, verifier, verify_network
from repro.analysis.report import VerificationReport
from repro.analysis.symbolic import (
    ANY,
    CandidateIndex,
    SymbolicHeader,
    could_match,
    refine,
)
from repro.core import MIC_PRIORITY, deploy_mic
from repro.core.controller import DECOY_DROP_PRIORITY
from repro.net import Network, fat_tree, linear
from repro.net.addresses import IPv4Addr
from repro.net.flowtable import (
    CONTROLLER_PORT,
    Drop,
    FlowEntry,
    FlowTable,
    Group,
    GroupEntry,
    Match,
    Output,
    PopMpls,
    PushMpls,
    SetField,
    ToController,
)
from repro.net.topology import Topology

# The tests/analysis/test_properties.py pools, plus in_port and proto.
_IPS = [IPv4Addr.parse(f"10.7.0.{i}") for i in range(1, 4)]
_MATCH_VALUES = {
    "in_port": st.integers(1, 3),
    "ip_src": st.sampled_from(_IPS),
    "ip_dst": st.sampled_from(_IPS),
    "proto": st.sampled_from(["tcp", "udp"]),
    "sport": st.integers(1, 3),
    "dport": st.integers(1, 3),
    "mpls": st.sampled_from([Match.NO_MPLS, 11, 12]),
}
_MATCH_FIELDS = tuple(_MATCH_VALUES)
# What the same fields hold in a header: "no shim" is literally None there.
_HEADER_VALUES = dict(_MATCH_VALUES, mpls=st.sampled_from([None, 11, 12]))

_PORTS = st.sampled_from([1, 2, 3, 9])  # 9 has no link behind it anywhere
_REWRITES = st.one_of(
    st.builds(SetField, st.just("ip_src"), st.sampled_from(_IPS)),
    st.builds(SetField, st.just("ip_dst"), st.sampled_from(_IPS)),
    st.builds(SetField, st.just("sport"), st.integers(1, 3)),
    st.builds(SetField, st.just("dport"), st.integers(1, 3)),
    st.builds(SetField, st.just("ttl"), st.just(9)),
    st.builds(PushMpls, st.sampled_from([11, 12])),
    st.builds(PopMpls),
)
_BUCKETS = st.lists(
    st.one_of(_REWRITES, st.builds(Output, _PORTS)), min_size=1, max_size=3
)
_ACTIONS = st.lists(
    st.one_of(
        _REWRITES,
        _REWRITES,
        st.builds(Output, _PORTS),
        st.builds(Output, _PORTS),
        st.builds(Output, _PORTS),
        st.builds(Output, st.just(CONTROLLER_PORT)),
        st.builds(Group, st.sampled_from([1, 2, 7])),  # 7 is never installed
        st.builds(Drop),
        st.builds(ToController),
    ),
    min_size=0,
    max_size=4,
)


@st.composite
def matches(draw):
    """Wildcard-only, full-exact and everything in between."""
    shape = draw(st.sampled_from(["none", "all", "some", "some", "some"]))
    if shape == "none":
        fields = ()
    elif shape == "all":
        fields = _MATCH_FIELDS
    else:
        fields = draw(st.lists(
            st.sampled_from(_MATCH_FIELDS), min_size=1, max_size=4, unique=True
        ))
    return Match(**{f: draw(_MATCH_VALUES[f]) for f in fields})


@st.composite
def headers(draw):
    """From all-ANY to fully concrete, ``mpls=None`` (no shim) included."""
    n_concrete = draw(st.integers(0, len(_MATCH_FIELDS)))
    fields = draw(st.permutations(_MATCH_FIELDS))[:n_concrete]
    return SymbolicHeader(**{f: draw(_HEADER_VALUES[f]) for f in fields})


_ENTRIES = st.lists(
    st.tuples(matches(), _ACTIONS, st.sampled_from([5, 10, 20])),
    min_size=0, max_size=7,
)
_GROUPS = st.lists(
    st.tuples(st.sampled_from([1, 2]), st.lists(_BUCKETS, min_size=1, max_size=3)),
    max_size=2,
)
# Purely random rules almost never chain into a cycle, so most examples also
# get one wide forwarding rule per switch towards a neighbouring switch —
# (what ip_dst it matches or None, what it rewrites ip_dst to or None, which
# neighbour, priority) — for the random rules to shadow, refine and fan into.
_BACKBONE = st.lists(
    st.tuples(
        st.sampled_from([None, *_IPS]), st.sampled_from([None, *_IPS]),
        st.integers(0, 1), st.sampled_from([5, 10, 20]),
    ),
    min_size=3, max_size=3,
)


def fill(table, entries, groups=()):
    for gid, buckets in groups:
        table.install_group(GroupEntry(group_id=gid, buckets=buckets))
    for match, actions, priority in entries:
        table.install(FlowEntry(match, actions, priority=priority))


def assert_same_report(got, want):
    assert [v.format() for v in got.violations] == [
        v.format() for v in want.violations
    ]
    assert got.violations == want.violations
    assert (
        got.checked_rules, got.checked_groups,
        got.checked_flows, got.checked_switches,
    ) == (
        want.checked_rules, want.checked_groups,
        want.checked_flows, want.checked_switches,
    )


# ----------------------------------------------------------------------
# (a) whole reports on random tables
# ----------------------------------------------------------------------
@given(
    ring=st.booleans(),
    backbone=st.one_of(st.none(), _BACKBONE, _BACKBONE),
    tables=st.lists(st.tuples(_ENTRIES, _GROUPS), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_random_tables_report_equals_the_oracle(ring, backbone, tables):
    net = ring_net() if ring else Network(linear(3, 1), seed=0)
    switches = [sw.name for sw in net.switches()]
    for n, (sw, (entries, groups)) in enumerate(zip(net.switches(), tables)):
        if backbone is not None:
            dst, rewrite, pick, priority = backbone[n]
            peers = [
                p for p in sorted(net.topo.graph.neighbors(sw.name))
                if p in switches
            ]
            entries = entries[:pick * 3] + [(
                Match(ip_dst=dst),
                ([SetField("ip_dst", rewrite)] if rewrite else [])
                + [Output(net.port(sw.name, peers[pick % len(peers)]))],
                priority,
            )] + entries[pick * 3:]
        fill(sw.table, entries, groups)
    want, truncated = oracle.verify_network(net)
    got = verify_network(net)
    if truncated:
        # The old traversal gave up silently and counted every visit against
        # its budget; past that point the two are not comparable.
        return
    assert not got.by_kind("traversal-truncated")
    assert_same_report(got, want)


# ----------------------------------------------------------------------
# (b) the index against the linear scans
# ----------------------------------------------------------------------
@given(entries=_ENTRIES, probes=st.lists(headers(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_candidates_and_winner_equal_the_linear_scans(entries, probes):
    table = FlowTable()
    fill(table, entries)
    index = CandidateIndex(table)
    for hdr in probes:
        want = oracle.candidate_entries(table.iter_entries(), hdr)
        got = index.candidates(hdr)
        assert [id(e) for e in got] == [id(e) for e in want], hdr
        assert index.winner(hdr) is oracle.winner_entry(
            table.iter_entries(), hdr
        ), hdr


def test_no_shim_header_meets_no_mpls_rules_only():
    table = FlowTable()
    bare = FlowEntry(Match(mpls=Match.NO_MPLS), [Drop()], priority=10)
    labelled = FlowEntry(Match(mpls=11), [Drop()], priority=10)
    anything = FlowEntry(Match(ip_dst=_IPS[0]), [Drop()], priority=5)
    for entry in (bare, labelled, anything):
        table.install(entry)
    index = CandidateIndex(table)
    assert index.candidates(SymbolicHeader(mpls=None)) == [bare]
    assert index.candidates(SymbolicHeader(mpls=11)) == [labelled]
    assert index.candidates(SymbolicHeader(mpls=12)) == [anything]
    assert index.candidates(SymbolicHeader()) == [bare, labelled, anything]
    assert index.winner(SymbolicHeader(mpls=12, ip_dst=_IPS[1])) is None
    assert index.winner(SymbolicHeader(mpls=ANY, ip_dst=_IPS[1])) is bare


@given(entries=_ENTRIES)
@settings(max_examples=200, deadline=None)
def test_join_yields_exactly_the_intersecting_pairs_in_scan_order(entries):
    table = FlowTable()
    fill(table, entries)
    index = CandidateIndex(table)
    ranked = index.entries
    assert ranked == table.entries
    assert index.intersecting_pairs() == [
        (i, j)
        for i in range(len(ranked))
        for j in range(i + 1, len(ranked))
        if ranked[i].match.intersects(ranked[j].match)
    ]


@given(match=matches(), hdr=headers())
@settings(max_examples=200, deadline=None)
def test_refine_takes_the_constraint_exactly_where_the_header_is_open(match, hdr):
    if not could_match(match, hdr):
        return
    refined = refine(match, hdr)
    for f in SymbolicHeader._fields:
        constraint = getattr(match, f)
        if getattr(hdr, f) is not ANY or constraint is None:
            assert getattr(refined, f) is getattr(hdr, f)
        elif f == "mpls" and constraint == Match.NO_MPLS:
            assert refined.mpls is None
        else:
            assert getattr(refined, f) == constraint


def test_symbolic_header_is_its_own_key():
    hdr = SymbolicHeader(ip_dst=_IPS[0], mpls=None, in_port=2)
    assert hdr.key() is hdr
    assert hdr == (ANY, ANY, ANY, _IPS[0], ANY, ANY, ANY, None, 2)
    assert hdr.describe() == "Hdr(ip_dst=10.7.0.1, mpls=None, in_port=2)"
    assert repr(SymbolicHeader()) == "Hdr(*)"
    moved = hdr.with_field("in_port", 3)
    assert isinstance(moved, SymbolicHeader)
    assert (moved.in_port, moved.ip_dst, hdr.in_port) == (3, _IPS[0], 2)
    assert hdr.with_field("eth_src", "m").eth_src == "m"


# ----------------------------------------------------------------------
# (c) loops stay per origin; diamonds stay clean
# ----------------------------------------------------------------------
def test_rewrite_loop_reported_once_per_origin_like_the_oracle():
    # s1 rewrites A→B, s2 rewrites B→A, s3 forwards A on: three origins reach
    # the cycle, and a fourth rule (C rewritten to A on s3) feeds into it.
    ip_a, ip_b, ip_c = _IPS
    net = ring_net()
    net.switch("s1").table.install(FlowEntry(
        Match(ip_dst=ip_a),
        [SetField("ip_dst", ip_b), Output(net.port("s1", "s2"))],
        priority=10,
    ))
    net.switch("s2").table.install(FlowEntry(
        Match(ip_dst=ip_b),
        [SetField("ip_dst", ip_a), Output(net.port("s2", "s3"))],
        priority=10,
    ))
    net.switch("s3").table.install(FlowEntry(
        Match(ip_dst=ip_a), [Output(net.port("s3", "s1"))], priority=10,
    ))
    net.switch("s3").table.install(FlowEntry(
        Match(ip_dst=ip_c),
        [SetField("ip_dst", ip_a), Output(net.port("s3", "s1"))],
        priority=10,
    ))
    want, truncated = oracle.verify_network(net)
    got = verify_network(net)
    assert not truncated
    assert_same_report(got, want)
    loops = got.by_kind("loop")
    assert len(loops) == 4
    assert len({v.rule for v in loops}) == 4  # one per origin rule


def test_diamond_is_not_a_loop_and_its_tail_is_explored_once(monkeypatch):
    # hS -> s1 =(group: two buckets)=> s2 and s3 -> s4 -> hD: the branches
    # reconverge on s4 with different in_ports, then on hD.
    topo = Topology("diamond")
    for name in ("s1", "s2", "s3", "s4"):
        topo.add_switch(name)
    topo.add_host("hS")
    topo.add_host("hD")
    for a, b in (("hS", "s1"), ("s1", "s2"), ("s1", "s3"), ("s2", "s4"),
                 ("s3", "s4"), ("s4", "hD")):
        topo.add_link(a, b)
    net = Network(topo, seed=0)
    ip = _IPS[0]
    s1 = net.switch("s1").table
    s1.install_group(GroupEntry(group_id=1, buckets=[
        [Output(net.port("s1", "s2"))], [Output(net.port("s1", "s3"))],
    ]))
    s1.install(FlowEntry(Match(ip_dst=ip), [Group(1)], priority=10))
    for mid in ("s2", "s3"):
        net.switch(mid).table.install(FlowEntry(
            Match(ip_dst=ip), [Output(net.port(mid, "s4"))], priority=10,
        ))
    net.switch("s4").table.install(FlowEntry(
        Match(ip_dst=ip), [Output(net.port("s4", "hD"))], priority=10,
    ))
    expanded = []
    real = CandidateIndex.candidates
    monkeypatch.setattr(
        CandidateIndex, "candidates",
        lambda self, hdr: expanded.append((id(self), hdr)) or real(self, hdr),
    )
    got = verify_network(net)
    want, _ = oracle.verify_network(net)
    assert got.ok, got.format()
    assert_same_report(got, want)
    # Every distinct (switch, header) state is expanded exactly once over all
    # four origins — five below the s1 rule, then each later origin's own
    # start state: what an earlier origin proved clean is skipped.
    assert len(expanded) == 8 == len(set(expanded))


# ----------------------------------------------------------------------
# (d) an index never outlives the run that built it
# ----------------------------------------------------------------------
def test_rule_installed_after_one_verify_is_seen_by_the_next():
    net, ctrl, mic = build(seed=0)
    establish_batch(net, mic, [("h1", "h16")], n_mns=3)
    assert mic.verify().ok
    edge = net.switch("p0e0")
    edge.table.install(
        FlowEntry(Match(), [Drop()], priority=MIC_PRIORITY + 10)
    )
    report = mic.verify()
    assert any(v.switch == "p0e0" for v in report.by_kind("shadowed-rule"))
    assert report.by_kind("blackhole")
    edge.table.remove(Match(), MIC_PRIORITY + 10)
    assert mic.verify().ok


# ----------------------------------------------------------------------
# (e) a real deployment: equal reports, and the work that is no longer done
# ----------------------------------------------------------------------
PAIRS = [("h1", "h16"), ("h5", "h12"), ("h2", "h9"), ("h6", "h15")]
CHANNELS = [dict(n_flows=2), dict(decoys=1), dict(), dict(n_mns=2)]


@pytest.fixture(scope="module")
def deployment():
    """Pre-wired ``fat_tree(4)`` carrying four MIC channels."""
    dep = deploy_mic(fat_tree(4), seed=0, pre_wire=True)
    for (a, b), kw in zip(PAIRS, CHANNELS):
        dep.sim.process(dep.mic.establish(a, b, service_port=80, **kw))
    dep.run()
    assert len(dep.mic.channels) == len(PAIRS)
    return dep.net, dep.mic


def test_deployment_report_equals_the_oracle(deployment):
    net, mic = deployment
    got = mic.verify()
    want, truncated = oracle.verify_network(net, mic=mic)
    assert not truncated
    assert got.ok, got.format()
    assert got.checked_flows == 5 and got.checked_rules > 1000
    assert_same_report(got, want)


def _poison(net):
    """(switch, entry) pairs that break a clean deployment three ways."""
    ip_a, ip_b = net.topo.host_ip("h16"), net.topo.host_ip("h12")
    return [
        # swallows every m-flow entering at this edge: shadows + blackholes
        ("p0e0", FlowEntry(Match(), [Drop()], priority=MIC_PRIORITY + 10)),
        # a two-switch rewrite loop above everything else
        ("p0a0", FlowEntry(
            Match(ip_dst=ip_a),
            [SetField("ip_dst", ip_b), Output(net.port("p0a0", "c1"))],
            priority=MIC_PRIORITY + 20,
        )),
        ("c1", FlowEntry(
            Match(ip_dst=ip_b),
            [SetField("ip_dst", ip_a), Output(net.port("c1", "p0a0"))],
            priority=MIC_PRIORITY + 20,
        )),
    ]


def test_poisoned_deployment_report_equals_the_oracle(deployment):
    net, mic = deployment
    poison = _poison(net)
    for switch, entry in poison:
        net.switch(switch).table.install(entry)
    try:
        got = mic.verify()
        want, truncated = oracle.verify_network(net, mic=mic)
    finally:
        for switch, entry in poison:
            net.switch(switch).table.remove(entry.match, entry.priority)
    assert not truncated
    for kind in ("shadowed-rule", "loop", "blackhole"):
        assert got.by_kind(kind), kind
    assert_same_report(got, want)


def test_verify_builds_one_candidate_index_per_switch(deployment, monkeypatch):
    """The table, loop and intent layers share one index per switch, and
    the report is the one each layer gives with indexes of its own."""
    net, mic = deployment
    poison = _poison(net)
    for switch, entry in poison:
        net.switch(switch).table.install(entry)
    try:
        separate = VerificationReport()
        verifier.verify_tables(net, separate)
        verifier.verify_match_keys(
            net, separate, (MIC_PRIORITY, DECOY_DROP_PRIORITY),
            registry=mic.registry)
        verifier.verify_forwarding(net, separate)
        invariants.verify_intents(net, mic, separate)

        built = []
        real_init = CandidateIndex.__init__

        def counted_init(self, table):
            built.append(table)
            real_init(self, table)

        monkeypatch.setattr(CandidateIndex, "__init__", counted_init)
        got = mic.verify()
    finally:
        for switch, entry in poison:
            net.switch(switch).table.remove(entry.match, entry.priority)
    tables = [sw.table for sw in net.switches()]
    assert len(built) == len(tables)
    assert all(a is b for a, b in zip(built, tables))
    assert got.by_kind("loop") and got.by_kind("blackhole")
    assert got.format() == separate.format()
    assert_same_report(got, separate)


def test_verify_network_never_scans(deployment, monkeypatch):
    net, mic = deployment
    joined = sum(
        len(CandidateIndex(sw.table).intersecting_pairs())
        for sw in net.switches()
    )
    all_pairs = sum(
        len(sw.table) * (len(sw.table) - 1) // 2 for sw in net.switches()
    )
    calls = {"could_match": 0, "intersects": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        symbolic, "could_match", counted("could_match", symbolic.could_match)
    )
    monkeypatch.setattr(
        Match, "intersects", counted("intersects", Match.intersects)
    )
    assert mic.verify().ok
    assert calls["could_match"] == 0
    assert calls["intersects"] <= joined
    assert joined * 20 < all_pairs, (joined, all_pairs)


# ----------------------------------------------------------------------
# The traversal budget: spent on new states only, and never silently
# ----------------------------------------------------------------------
def fan_out_net():
    """s1 fans three rewritten copies into a five-switch chain to ``h6``."""
    net = Network(linear(6, 1), seed=0)
    ip = _IPS[0]
    s1 = net.switch("s1").table
    s1.install_group(GroupEntry(group_id=1, buckets=[
        [SetField("sport", n), Output(net.port("s1", "s2"))] for n in (1, 2, 3)
    ]))
    s1.install(FlowEntry(Match(ip_dst=ip), [Group(1)], priority=10))
    for i in range(2, 7):
        nxt = f"s{i + 1}" if i < 6 else "h6"
        net.switch(f"s{i}").table.install(FlowEntry(
            Match(ip_dst=ip), [Output(net.port(f"s{i}", nxt))], priority=10,
        ))
    return net


def test_exhausted_budget_is_reported_and_leaves_nothing_marked_clean(monkeypatch):
    net = fan_out_net()
    assert verify_network(net).ok  # 16 states below the s1 rule: well inside 512

    monkeypatch.setattr(verifier, "_MAX_STATES_PER_ORIGIN", 8)
    expanded = []
    real = CandidateIndex.candidates
    monkeypatch.setattr(
        CandidateIndex, "candidates",
        lambda self, hdr: expanded.append(hdr) or real(self, hdr),
    )
    report = verify_network(net)
    cut = report.by_kind("traversal-truncated")
    assert len(cut) == 1 and report.violations == cut
    assert cut[0].severity == "warning" and not report.errors
    assert cut[0].switch == "s1"
    assert cut[0].rule == net.switch("s1").table.entries[0].describe()
    assert "8 states" in cut[0].message
    # The s1 origin spent its 8 expansions (itself, the sport=1 copy down the
    # whole chain, two hops of the sport=2 copy) and never saw sport=3.  The
    # later origins s2..s6 are not fooled by that: each expands its own state,
    # s2 walks the chain once, the rest find it clean.
    assert len(expanded) == 8 + 5 + 4
    assert not any(h.sport == 3 for h in expanded)
    assert sum(h.sport is ANY for h in expanded) == 1 + 5 + 4


def test_memo_hits_are_free(monkeypatch):
    # A budget only has to cover the states an origin is the first to prove
    # clean: the chain s2..s6 is walked once, by the s2 rule.
    net = fan_out_net()
    monkeypatch.setattr(verifier, "_MAX_STATES_PER_ORIGIN", 6)
    report = verify_network(net)
    # s1 truncates (needs 16); s2 needs s2..s6 = 5 new states, s3 onward 1.
    assert [v.switch for v in report.by_kind("traversal-truncated")] == ["s1"]
    monkeypatch.setattr(verifier, "_MAX_STATES_PER_ORIGIN", 4)
    report = verify_network(net)
    # Now s2 (5 new states) is cut too — and because a cut subtree is never
    # marked clean, s3 (4 new: s3..s6) has to walk the tail itself and just
    # fits; s4..s6 then ride on what s3 proved.
    assert [v.switch for v in report.by_kind("traversal-truncated")] == [
        "s1", "s2",
    ]


def test_goldens_and_the_reference_deployment_stay_far_from_the_budget(
    deployment, monkeypatch
):
    net, mic = deployment
    monkeypatch.setattr(verifier, "_MAX_STATES_PER_ORIGIN", 16)
    assert mic.verify().ok  # no origin needs even 16 new states (512 allowed)
    # The chaos scorecard golden pins a finding-free report (tests/faults
    # compares a fresh seed-0 run to it), warnings included.
    golden = json.loads(
        (Path(__file__).parents[1] / "data" / "chaos_scorecard_seed0.json")
        .read_text()
    )
    assert golden["verification"] == {"ok": True, "violations": 0}
