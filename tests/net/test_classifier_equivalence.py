"""Indexed classifier == reference linear classifier, by property.

The tiered lookup pipeline (per-priority tuple-space indexes + bounded
lookup cache) must agree with ``lookup_linear`` (``flowtable_oracle``) — the
priority-ordered linear scan that defines the semantics — on every packet,
for every rule set, through every mutation.  Rule sets here deliberately
mix overlapping priorities, duplicate matches, wildcards of every arity and
MPLS shims (including the NO_MPLS "absent shim" sentinel); field values are
drawn from small pools so overlaps and shadowing are common, not rare.
"""

import pytest
from flowtable_oracle import lookup_linear
from hypothesis import given, settings, strategies as st

from repro.net import (
    Drop,
    FlowEntry,
    FlowTable,
    Match,
    Output,
    Packet,
    SetField,
    ip,
    mac,
)

# Small pools make rule/packet collisions likely.
IPS = [ip(1), ip(2), ip(3)]
MACS = [mac(1), mac(2)]
PORTS = [80, 443, 7000]
LABELS = [7, 77]

ip_field = st.one_of(st.none(), st.sampled_from(IPS))
mac_field = st.one_of(st.none(), st.sampled_from(MACS))
port_field = st.one_of(st.none(), st.sampled_from(PORTS))
proto_field = st.one_of(st.none(), st.sampled_from(["tcp", "udp"]))
in_port_field = st.one_of(st.none(), st.integers(1, 3))
mpls_match = st.one_of(
    st.none(), st.just(Match.NO_MPLS), st.sampled_from(LABELS)
)

matches = st.builds(
    Match,
    in_port=in_port_field,
    eth_src=mac_field,
    eth_dst=mac_field,
    ip_src=ip_field,
    ip_dst=ip_field,
    proto=proto_field,
    sport=port_field,
    dport=port_field,
    mpls=mpls_match,
)

entries = st.builds(
    lambda match, priority, port: FlowEntry(match, [Output(port)], priority=priority),
    matches,
    st.integers(0, 3),  # few levels -> plenty of equal-priority overlap
    st.integers(1, 4),
)

packets = st.builds(
    lambda esrc, edst, src, dst, proto, sport, dport, mpls: Packet(
        eth_src=esrc,
        eth_dst=edst,
        ip_src=src,
        ip_dst=dst,
        proto=proto,
        sport=sport,
        dport=dport,
        mpls=mpls,
        payload_size=100,
    ),
    st.sampled_from(MACS),
    st.sampled_from(MACS),
    st.sampled_from(IPS),
    st.sampled_from(IPS),
    st.sampled_from(["tcp", "udp"]),
    st.sampled_from(PORTS),
    st.sampled_from(PORTS),
    st.one_of(st.none(), st.sampled_from(LABELS)),
)


def build_table(rules, **kw):
    table = FlowTable(**kw)
    for e in rules:
        table.install(e)
    return table


@settings(max_examples=250, deadline=None)
@given(rules=st.lists(entries, max_size=25), pkt=packets, in_port=st.integers(1, 3))
def test_indexed_lookup_equals_linear_reference(rules, pkt, in_port):
    """Same entry *object* from both classifiers, for any rule set."""
    table = build_table(rules)
    assert table.lookup(pkt, in_port) is lookup_linear(table, pkt, in_port)


@settings(max_examples=250, deadline=None)
@given(rules=st.lists(entries, max_size=25), pkt=packets, in_port=st.integers(1, 3))
def test_equivalence_with_cache_disabled(rules, pkt, in_port):
    """The tuple-space tier alone (no cache) also agrees with the reference."""
    table = build_table(rules, cache_size=0)
    assert table.lookup(pkt, in_port) is lookup_linear(table, pkt, in_port)


@settings(max_examples=200, deadline=None)
@given(
    rules=st.lists(entries, min_size=1, max_size=20),
    pkts=st.lists(packets, min_size=1, max_size=6),
    in_port=st.integers(1, 3),
    data=st.data(),
)
def test_equivalence_survives_mutation_between_lookups(rules, pkts, in_port, data):
    """Install/remove between lookups: the cache never serves stale results."""
    table = build_table(rules)
    for pkt in pkts:
        assert table.lookup(pkt, in_port) is lookup_linear(table, pkt, in_port)
    # Mutate: remove one installed rule's match, install one new rule.
    victim = data.draw(st.sampled_from(rules))
    table.remove(victim.match, priority=victim.priority)
    table.install(data.draw(entries))
    for pkt in pkts:
        assert table.lookup(pkt, in_port) is lookup_linear(table, pkt, in_port)


@settings(max_examples=200, deadline=None)
@given(rules=st.lists(entries, max_size=20), pkt=packets, in_port=st.integers(1, 3))
def test_equivalence_after_setfield_rewrite(rules, pkt, in_port):
    """A rewritten packet presents a new header tuple, not a stale cache hit."""
    table = build_table(rules)
    # Prime the cache on the original header, then rewrite in place the way
    # Mimic Node set-field actions do.
    table.lookup(pkt, in_port)
    rewrite = FlowEntry(
        Match(), [SetField("ip_dst", ip(2)), SetField("sport", 443), Drop()],
        priority=99,
    )
    table.install(rewrite)
    table.apply(pkt, in_port)  # mutates pkt via the SetFields
    table.remove(rewrite.match, priority=99)
    assert table.lookup(pkt, in_port) is lookup_linear(table, pkt, in_port)


def _coinciding(v, w, swapped, proto, sport, dport, mpls):
    """A header whose MAC and IP integer values coincide across positions."""
    src, dst = (w, v) if swapped else (v, w)
    return Packet(
        eth_src=mac(v), eth_dst=mac(w), ip_src=ip(src), ip_dst=ip(dst),
        proto=proto, sport=sport, dport=dport, mpls=mpls, payload_size=100,
    )


# The lookup cache keys on the addresses' integer ``.value``s, so only the
# *position* in the key tells eth_src=1 from ip_src=1 or ip_dst=1.  These
# headers have eth_src.value == ip_src.value (and the ip_src / ip_dst
# swapped twin of each); runs of them through a 1-, 2- and 1024-slot cache
# would serve another header's entry if the key ever confused two fields.
coinciding_packets = st.builds(
    _coinciding,
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from(["tcp", "udp"]),
    st.sampled_from(PORTS),
    st.sampled_from(PORTS),
    st.one_of(st.none(), st.sampled_from(LABELS)),
)


@pytest.mark.parametrize("cache_size", [1, 2, 1024])
@settings(max_examples=100, deadline=None)
@given(
    rules=st.lists(entries, max_size=20),
    pkts=st.lists(coinciding_packets, min_size=2, max_size=8),
    in_port=st.integers(1, 3),
)
def test_equivalence_when_address_values_coincide_across_positions(
    cache_size, rules, pkts, in_port
):
    table = build_table(rules, cache_size=cache_size)
    for _ in range(2):  # the second pass is served from whatever stayed cached
        for pkt in pkts:
            assert table.lookup(pkt, in_port) is lookup_linear(table, pkt, in_port)
    assert len(table._lookup_cache) <= cache_size


def test_cache_invalidation_install_remove_between_lookups():
    """Scripted regression: the cached winner changes as rules come and go."""
    table = FlowTable()
    lo = FlowEntry(Match(ip_dst=ip(1)), [Output(1)], priority=1)
    table.install(lo)
    pkt = Packet(
        eth_src=mac(1), eth_dst=mac(2), ip_src=ip(9), ip_dst=ip(1),
        sport=80, dport=80, payload_size=10,
    )
    assert table.lookup(pkt, 1) is lo
    assert table.lookup(pkt, 1) is lo  # served from cache

    hi = FlowEntry(Match(ip_dst=ip(1)), [Output(2)], priority=5)
    table.install(hi)  # must invalidate the cached winner
    assert table.lookup(pkt, 1) is hi

    table.remove(hi.match, priority=5)
    assert table.lookup(pkt, 1) is lo

    table.remove(lo.match, priority=1)
    assert table.lookup(pkt, 1) is None
    # ... and a miss is also invalidated by a later install.
    table.install(lo)
    assert table.lookup(pkt, 1) is lo


def test_cache_stays_bounded():
    table = FlowTable(cache_size=8)
    table.install(FlowEntry(Match(), [Output(1)]))
    for sport in range(100):
        pkt = Packet(
            eth_src=mac(1), eth_dst=mac(2), ip_src=ip(1), ip_dst=ip(2),
            sport=sport, dport=80, payload_size=10,
        )
        assert table.lookup(pkt, 1) is not None
    assert len(table._lookup_cache) <= 8


def test_equal_priority_duplicate_matches_first_installed_wins():
    """Duplicate installs share one index bucket; the head wins, as linear."""
    table = FlowTable()
    first = FlowEntry(Match(ip_dst=ip(1)), [Output(1)], priority=3)
    second = FlowEntry(Match(ip_dst=ip(1)), [Output(2)], priority=3)
    table.install(first)
    table.install(second)
    pkt = Packet(
        eth_src=mac(1), eth_dst=mac(2), ip_src=ip(9), ip_dst=ip(1),
        sport=1, dport=2, payload_size=10,
    )
    assert table.lookup(pkt, 1) is first
    assert lookup_linear(table, pkt, 1) is first
    # Removing the duplicated match removes both; reinstall re-sequences.
    assert table.remove(Match(ip_dst=ip(1)), priority=3) == 2
    table.install(second)
    assert table.lookup(pkt, 1) is second
