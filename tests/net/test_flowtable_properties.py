"""Property tests for flow-table classification semantics."""

import random

from hypothesis import given, settings, strategies as st

from repro.net import (
    CONTROLLER_PORT,
    Drop,
    FlowEntry,
    FlowTable,
    Match,
    Output,
    Packet,
    PopMpls,
    PushMpls,
    SetField,
    ToController,
    ip,
    mac,
)


def mk_packet(rng):
    return Packet(
        eth_src=mac(rng.getrandbits(48)),
        eth_dst=mac(rng.getrandbits(48)),
        ip_src=ip(rng.getrandbits(32)),
        ip_dst=ip(rng.getrandbits(32)),
        sport=rng.randrange(65536),
        dport=rng.randrange(65536),
        mpls=rng.choice([None, rng.getrandbits(20)]),
        payload_size=rng.randrange(1500),
    )


def mk_match(rng, pkt):
    """A random match that is guaranteed to cover ``pkt``."""
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["ip_src"] = pkt.ip_src
    if rng.random() < 0.5:
        kwargs["ip_dst"] = pkt.ip_dst
    if rng.random() < 0.3:
        kwargs["sport"] = pkt.sport
    if rng.random() < 0.3:
        kwargs["dport"] = pkt.dport
    if rng.random() < 0.3:
        kwargs["mpls"] = pkt.mpls if pkt.mpls is not None else Match.NO_MPLS
    return Match(**kwargs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_matching_entry_always_covers_packet(seed):
    """lookup() only ever returns entries whose match covers the packet."""
    rng = random.Random(seed)
    table = FlowTable()
    pkt = mk_packet(rng)
    # A mix of covering and arbitrary entries.
    for i in range(rng.randrange(1, 10)):
        if rng.random() < 0.5:
            m = mk_match(rng, pkt)
        else:
            m = mk_match(rng, mk_packet(rng))
        table.install(FlowEntry(m, [Output(1)], priority=rng.randrange(10)))
    entry = table.lookup(pkt, in_port=1)
    if entry is not None:
        assert entry.match.matches(pkt, 1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_highest_matching_priority_wins(seed):
    rng = random.Random(seed)
    table = FlowTable()
    pkt = mk_packet(rng)
    priorities = []
    for _ in range(rng.randrange(2, 12)):
        prio = rng.randrange(100)
        table.install(FlowEntry(mk_match(rng, pkt), [Output(1)], priority=prio))
        priorities.append(prio)
    entry = table.lookup(pkt, in_port=1)
    assert entry is not None
    assert entry.priority == max(priorities)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_apply_never_mutates_on_miss(seed):
    rng = random.Random(seed)
    table = FlowTable()
    # An entry that cannot match (different exact ip on both fields).
    pkt = mk_packet(rng)
    other = mk_packet(rng)
    table.install(
        FlowEntry(Match(ip_src=other.ip_src, ip_dst=other.ip_dst,
                        sport=(pkt.sport + 1) % 65536),
                  [SetField("ip_src", ip(1)), Output(1)])
    )
    before = (pkt.ip_src, pkt.ip_dst, pkt.sport, pkt.dport, pkt.mpls)
    emissions, to_ctrl, entry = table.apply(pkt, 1)
    if entry is None:
        after = (pkt.ip_src, pkt.ip_dst, pkt.sport, pkt.dport, pkt.mpls)
        assert before == after and to_ctrl


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_counters_sum_to_applied_packets(seed):
    rng = random.Random(seed)
    table = FlowTable()
    pkts = [mk_packet(rng) for _ in range(rng.randrange(1, 20))]
    table.install(FlowEntry(Match(), [Drop()]))
    for p in pkts:
        table.apply(p, 1)
    entry = table.entries[0]
    assert entry.packet_count == len(pkts)
    assert entry.byte_count == sum(p.size for p in pkts)


#: header rewrites a rule can run before it drops or punts: every way to
#: add, change or strip the MPLS shim, and fields that leave the size alone
_REWRITES = st.one_of(
    st.builds(PushMpls, st.integers(0, (1 << 20) - 1)),
    st.just(PopMpls()),
    st.builds(
        SetField, st.just("mpls"), st.one_of(st.none(), st.integers(0, (1 << 20) - 1))
    ),
    st.builds(SetField, st.just("sport"), st.integers(0, 0xFFFF)),
    st.builds(SetField, st.just("ttl"), st.integers(1, 255)),
)

#: how a rule can end without emitting anything
_SILENT_ENDS = st.sampled_from([
    [Drop()], [ToController()], [Output(CONTROLLER_PORT)], [], [Drop(), Output(1)],
])


@settings(max_examples=200, deadline=None)
@given(
    ingress_mpls=st.one_of(st.none(), st.integers(0, (1 << 20) - 1)),
    proto=st.sampled_from(["tcp", "udp"]),
    payload_size=st.integers(0, 1500),
    rewrites=st.lists(_REWRITES, max_size=5),
    end=_SILENT_ENDS,
)
def test_a_rule_that_emits_nothing_charges_the_ingress_size(
    ingress_mpls, proto, payload_size, rewrites, end
):
    """The drop / punt-only byte charge is the size the packet arrived with,
    whatever the rule rewrote before it stopped."""
    table = FlowTable()
    entry = FlowEntry(Match(), [*rewrites, *end])
    table.install(entry)
    p = Packet(
        eth_src=mac(1), eth_dst=mac(2), ip_src=ip(1), ip_dst=ip(2),
        proto=proto, mpls=ingress_mpls, payload_size=payload_size,
    )
    ingress_size = p.size
    emissions, _, matched = table.apply(p, 1)
    assert matched is entry and emissions == []
    assert entry.byte_count == ingress_size
