"""Unit tests for the packet model."""

import ast
import dataclasses
import inspect
import textwrap

import pytest
from hypothesis import given, settings, strategies as st
from packet_oracle import rebuild_copy

from repro.net import (
    FlowEntry, FlowTable, Match, Network, Output, Packet, PushMpls, SetField, ip, linear, mac,
)
from repro.net.packet import ETH_HEADER, IP_HEADER, MPLS_SHIM, TCP_HEADER, UDP_HEADER


def make(**kw):
    base = dict(
        eth_src=mac(1),
        eth_dst=mac(2),
        ip_src=ip("10.0.0.1"),
        ip_dst=ip("10.0.0.2"),
        sport=1000,
        dport=80,
        payload_size=100,
    )
    base.update(kw)
    return Packet(**base)


def test_size_tcp_no_mpls():
    p = make()
    assert p.size == ETH_HEADER + IP_HEADER + TCP_HEADER + 100


def test_size_udp():
    p = make(proto="udp")
    assert p.size == ETH_HEADER + IP_HEADER + UDP_HEADER + 100


def test_size_with_mpls_shim():
    p = make(mpls=42)
    assert p.size == ETH_HEADER + MPLS_SHIM + IP_HEADER + TCP_HEADER + 100


@pytest.mark.parametrize("proto", ["tcp", "udp"])
@pytest.mark.parametrize("mpls", [None, 7])
def test_size_is_header_plus_payload(proto, mpls):
    p = make(proto=proto, mpls=mpls, payload_size=321)
    assert p.size == p.header_size + 321


def test_uids_unique():
    """Every host of a deployment mints from one namespace; a packet no
    deployment made has no identity."""
    net = Network(linear(2, hosts_per_switch=1))
    h1, h2 = net.host("h1"), net.host("h2")
    made = [h1.make_packet(h2.ip), h2.make_packet(h1.ip), h1.make_packet(h2.ip)]
    assert [p.uid for p in made] == [1, 2, 3]
    assert [p.content_tag for p in made] == [1, 2, 3]
    assert (make().uid, make().content_tag) == (0, 0)


def test_copy_with_a_uid_is_a_new_instance_with_the_same_content_tag():
    p = make(uid=5, content_tag=6)
    c = p.copy(7)
    assert (c.uid, p.uid) == (7, 5)
    assert c.content_tag == p.content_tag
    assert c.ip_src == p.ip_src


def _every_field_distinct() -> Packet:
    """A packet whose every field holds a value no other field holds."""
    values = dict(
        eth_src=mac(0xA1), eth_dst=mac(0xA2), ip_src=ip("10.1.0.1"),
        ip_dst=ip("10.2.0.2"), proto="udp", sport=1111, dport=2222, mpls=33,
        ttl=44, payload=("payload", 55), payload_size=66, uid=77, content_tag=88,
        created_at=9.9,
    )
    # a field added to Packet later must be given a value here (and in copy)
    assert set(values) == {f.name for f in dataclasses.fields(Packet)}
    return Packet(**values)


@pytest.mark.parametrize("fresh_identity", [True, False])
def test_copy_equals_dataclasses_replace_field_for_field(fresh_identity):
    p = _every_field_distinct()
    reference = dataclasses.replace(p)
    dup = p.copy(99 if fresh_identity else None)
    assert dup is not p
    for f in dataclasses.fields(Packet):
        if f.name == "uid" and fresh_identity:
            continue
        assert getattr(dup, f.name) == getattr(reference, f.name), f.name
    assert dup.payload is p.payload  # shallow, as replace is


# Every field, header fields straddling their legal range: the values are set
# with setattr (as SetField does), so an illegal one is only met by copy().
_port = st.one_of(st.integers(-2, 2), st.integers(0xFFFE, 0x10001))
_field_values = dict(
    eth_src=st.builds(mac, st.integers(0, 3)),
    eth_dst=st.builds(mac, st.integers(0, 3)),
    ip_src=st.builds(ip, st.integers(0, 3)),
    ip_dst=st.builds(ip, st.integers(0, 3)),
    proto=st.sampled_from(["tcp", "udp", "icmp", ""]),
    sport=_port,
    dport=_port,
    mpls=st.one_of(st.none(), st.integers(-2, 2),
                   st.integers((1 << 32) - 2, (1 << 32) + 2)),
    ttl=st.integers(-1, 255),
    payload=st.one_of(st.none(), st.binary(max_size=4), st.tuples(st.integers())),
    payload_size=st.integers(-2, 2000),
    uid=st.integers(1, 1 << 40),
    content_tag=st.integers(1, 1 << 40),
    created_at=st.floats(0, 1e6),
)


def _outcome(build, p: Packet, uid) -> object:
    """What ``build`` returned or raised."""
    try:
        return build(p, uid)
    except Exception as exc:  # noqa: BLE001 - compared by the caller, never swallowed
        return (type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(
    values=st.fixed_dictionaries(_field_values),
    uid=st.one_of(st.none(), st.integers(0, 1 << 40)),
)
def test_copy_equals_a_rebuild_through_the_constructor(values, uid):
    assert set(values) == {f.name for f in dataclasses.fields(Packet)}
    p = make()
    for name, value in values.items():
        setattr(p, name, value)
    dup = _outcome(Packet.copy, p, uid)
    # dataclass equality over all 14 fields, or the same (type, message)
    assert dup == _outcome(rebuild_copy, p, uid)
    if isinstance(dup, Packet):
        assert dup is not p and dup.payload is p.payload
        assert dup.uid == (p.uid if uid is None else uid)


def test_copy_stores_every_dataclass_field():
    """A field added to Packet later cannot be silently dropped by copy():
    the slot copy names its fields one by one, so read them off its source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(Packet.copy)))
    stored = {
        target.attr
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name) and target.value.id == "dup"
    }
    assert stored == {f.name for f in dataclasses.fields(Packet)}
    constructor_calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "Packet"
    ]
    assert not constructor_calls  # one copy per emission, no second __init__


def test_copy_keeps_the_uid_unless_a_fresh_identity_is_asked_for():
    p = make(uid=3, content_tag=4)
    kept = p.copy()
    assert kept.uid == 3
    fresh = p.copy(0)  # the caller's uid is taken as given, even a falsy one
    assert fresh.uid == 0
    assert kept.content_tag == fresh.content_tag == 4


def test_a_table_mints_multicast_copies_from_its_own_namespace():
    """The first emission keeps the packet's uid, every further one draws
    from the namespace the table was given — a bare table's is its own."""
    def uids(table):
        table.install(FlowEntry(Match(), [Output(1), Output(2), Output(3)]))
        emissions, _punt, _entry = table.apply(make(uid=40), 1)
        return [pkt.uid for _port, pkt in emissions]

    assert uids(FlowTable()) == uids(FlowTable()) == [40, 1, 2]
    net = Network(linear(1, hosts_per_switch=2))
    net.host("h1").make_packet(net.host("h2").ip)  # draws uid 1 of the fabric's
    assert uids(net.switch("s1").table) == [40, 2, 3]


@pytest.mark.parametrize(
    "field, value",
    [("sport", 70000), ("dport", -1), ("mpls", 1 << 32), ("mpls", -7)],
)
def test_copy_rejects_a_header_rewritten_out_of_range(field, value):
    # SetField / PushMpls rewrite with plain attribute assignment, so the
    # copy taken at emission is what validates the rewritten header.
    p = make()
    setattr(p, field, value)
    with pytest.raises(ValueError, match="out of range"):
        p.copy()
    with pytest.raises(ValueError, match="out of range"):
        p.copy(11)


@pytest.mark.parametrize(
    "action", [SetField("dport", 1 << 16), PushMpls(1 << 32)], ids=["port", "label"]
)
def test_switch_emission_rejects_an_out_of_range_rewrite(action):
    table = FlowTable()
    table.install(FlowEntry(Match(), [action, Output(1)]))
    with pytest.raises(ValueError, match="out of range"):
        table.apply(make(), 1)


def test_copy_is_independent():
    p = make()
    c = p.copy()
    c.ip_src = ip("99.0.0.1")
    assert p.ip_src == ip("10.0.0.1")


def test_match_tuple_and_five_tuple():
    p = make(mpls=7)
    assert p.match_tuple() == (ip("10.0.0.1"), ip("10.0.0.2"), 7)
    assert p.five_tuple() == (ip("10.0.0.1"), ip("10.0.0.2"), "tcp", 1000, 80)


@pytest.mark.parametrize(
    "kw",
    [
        dict(sport=-1),
        dict(dport=70000),
        dict(proto="icmp"),
        dict(payload_size=-5),
        dict(mpls=-3),
        dict(mpls=1 << 32),
    ],
)
def test_validation_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        make(**kw)


def test_header_fields_mutable():
    p = make()
    p.ip_src = ip("10.0.0.9")
    p.mpls = 5
    assert p.match_tuple() == (ip("10.0.0.9"), ip("10.0.0.2"), 5)


def test_summary_contains_addresses():
    s = make(mpls=3).summary()
    assert "10.0.0.1" in s and "10.0.0.2" in s and "mpls=3" in s
