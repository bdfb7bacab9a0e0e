"""Unit tests for flow table semantics (match, priority, actions, groups)."""

import pytest

from repro.net import (
    Drop,
    FlowEntry,
    FlowTable,
    Group,
    GroupEntry,
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
from repro.net.flowtable import TableMissError


def pkt(**kw):
    base = dict(
        eth_src=mac(1),
        eth_dst=mac(2),
        ip_src=ip("10.0.0.1"),
        ip_dst=ip("10.0.0.2"),
        sport=1000,
        dport=80,
        payload_size=50,
    )
    base.update(kw)
    return Packet(**base)


class TestMatch:
    def test_wildcard_matches_everything(self):
        assert Match().matches(pkt(), in_port=3)

    def test_exact_ip_match(self):
        m = Match(ip_src=ip("10.0.0.1"), ip_dst=ip("10.0.0.2"))
        assert m.matches(pkt(), 1)
        assert not m.matches(pkt(ip_src=ip("10.0.0.9")), 1)

    def test_in_port_match(self):
        m = Match(in_port=2)
        assert m.matches(pkt(), 2)
        assert not m.matches(pkt(), 3)

    def test_mpls_exact(self):
        m = Match(mpls=100)
        assert m.matches(pkt(mpls=100), 1)
        assert not m.matches(pkt(mpls=101), 1)
        assert not m.matches(pkt(), 1)  # absent shim

    def test_mpls_no_shim_sentinel(self):
        m = Match(mpls=Match.NO_MPLS)
        assert m.matches(pkt(), 1)
        assert not m.matches(pkt(mpls=5), 1)

    def test_l4_and_proto_match(self):
        m = Match(proto="tcp", sport=1000, dport=80)
        assert m.matches(pkt(), 1)
        assert not m.matches(pkt(dport=443), 1)
        assert not m.matches(pkt(proto="udp", sport=1000, dport=80), 1)

    def test_eth_match(self):
        m = Match(eth_src=mac(1), eth_dst=mac(2))
        assert m.matches(pkt(), 1)
        assert not m.matches(pkt(eth_dst=mac(9)), 1)

    def test_key_identity(self):
        assert Match(ip_src=ip(1)).key() == Match(ip_src=ip(1)).key()
        assert Match(ip_src=ip(1)).key() != Match(ip_dst=ip(1)).key()

    def test_key_lists_every_match_field_in_declaration_order(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(Match)]
        m = Match(**{name: i + 1 for i, name in enumerate(names)})
        assert m.key() == tuple(getattr(m, name) for name in names)
        assert Match().key() == (None,) * len(names)

    def test_describe(self):
        assert Match().describe() == "Match(*)"
        assert "ip_src=10.0.0.1" in Match(ip_src=ip("10.0.0.1")).describe()

    def test_describe_lists_constrained_fields_in_order_and_names_no_mpls(self):
        m = Match(in_port=3, ip_dst=ip("10.0.0.2"), dport=80, mpls=Match.NO_MPLS)
        assert m.describe() == "Match(in_port=3, ip_dst=10.0.0.2, dport=80, mpls=NO_MPLS)"
        assert repr(m) == m.describe()
        assert Match(mpls=7, proto="udp").describe() == "Match(proto=udp, mpls=7)"

    def test_derived_text_does_not_leak_into_equality_or_hash(self):
        a, b = Match(ip_src=ip(1)), Match(ip_src=ip(1))
        a.describe()
        assert a == b and hash(a) == hash(b)


class TestActions:
    def test_setfield_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            SetField("uid", 1)

    def test_setfield_rewrites(self):
        table = FlowTable()
        table.install(
            FlowEntry(Match(), [SetField("ip_src", ip("10.9.9.9")), Output(2)])
        )
        p = pkt()
        emissions, to_ctrl, entry = table.apply(p, 1)
        assert not to_ctrl
        assert emissions == [(2, p)]
        assert p.ip_src == ip("10.9.9.9")

    def test_push_pop_mpls(self):
        table = FlowTable()
        table.install(FlowEntry(Match(mpls=Match.NO_MPLS), [PushMpls(77), Output(1)], priority=5))
        table.install(FlowEntry(Match(mpls=77), [PopMpls(), Output(2)], priority=5))
        p1 = pkt()
        (port1, out1), = table.apply(p1, 1)[0]
        assert out1.mpls == 77 and port1 == 1
        p2 = pkt(mpls=77)
        (port2, out2), = table.apply(p2, 1)[0]
        assert out2.mpls is None and port2 == 2

    def test_rewrite_count_counts_header_rewrites_only(self):
        acts = [
            SetField("ip_dst", ip(9)), PushMpls(7), Output(1), PopMpls(),
            SetField("ttl", 3), Output(2),
        ]
        assert FlowEntry(Match(), acts).rewrite_count == 4
        assert FlowEntry(Match(), [Output(1)]).rewrite_count == 0
        assert FlowEntry(Match(), [Drop()]).rewrite_count == 0
        assert FlowEntry(Match(), []).rewrite_count == 0

    def test_rewrite_count_does_not_leak_into_equality_or_rendering(self):
        a = FlowEntry(Match(), [PushMpls(7), Output(1)], entry_id=1)
        b = FlowEntry(Match(), [PushMpls(7), Output(1)], entry_id=1)
        before = (a.describe(), repr(a))
        assert a.rewrite_count == 1
        assert a == b and (a.describe(), repr(a)) == before

    def test_drop_stops_pipeline(self):
        table = FlowTable()
        table.install(FlowEntry(Match(), [Drop(), Output(1)]))
        emissions, to_ctrl, entry = table.apply(pkt(), 1)
        assert emissions == [] and not to_ctrl and entry is not None

    def test_to_controller_flag(self):
        table = FlowTable()
        table.install(FlowEntry(Match(), [ToController()]))
        emissions, to_ctrl, _ = table.apply(pkt(), 1)
        assert to_ctrl and emissions == []

    def test_multi_output_emits_copies(self):
        table = FlowTable()
        table.install(FlowEntry(Match(), [Output(1), SetField("ip_dst", ip(9)), Output(2)]))
        emissions, _, _ = table.apply(pkt(), 1)
        assert len(emissions) == 2
        (p_a, p_b) = emissions[0][1], emissions[1][1]
        # The second output sees the rewritten dst; the first does not.
        assert p_a.ip_dst == ip("10.0.0.2")
        assert p_b.ip_dst == ip(9)
        assert p_a.uid != p_b.uid


class TestTable:
    def test_miss_requests_controller(self):
        emissions, to_ctrl, entry = FlowTable().apply(pkt(), 1)
        assert to_ctrl and entry is None and emissions == []

    def test_priority_order(self):
        table = FlowTable()
        table.install(FlowEntry(Match(), [Output(1)], priority=1))
        table.install(FlowEntry(Match(ip_dst=ip("10.0.0.2")), [Output(2)], priority=10))
        emissions, _, _ = table.apply(pkt(), 1)
        assert emissions[0][0] == 2

    def test_equal_priority_first_installed_wins(self):
        table = FlowTable()
        table.install(FlowEntry(Match(), [Output(1)], priority=5))
        table.install(FlowEntry(Match(), [Output(2)], priority=5))
        assert table.apply(pkt(), 1)[0][0][0] == 1

    def test_counters(self):
        table = FlowTable()
        e = FlowEntry(Match(), [Output(1)])
        table.install(e)
        p = pkt()
        table.apply(p, 1)
        table.apply(pkt(), 1)
        assert e.packet_count == 2
        assert e.byte_count == 2 * p.size

    def test_remove_by_match(self):
        table = FlowTable()
        m = Match(ip_dst=ip(5))
        table.install(FlowEntry(m, [Output(1)], priority=2))
        table.install(FlowEntry(Match(), [Output(9)]))
        assert table.remove(m) == 1
        assert len(table) == 1

    def test_remove_respects_priority_filter(self):
        table = FlowTable()
        m = Match(ip_dst=ip(5))
        table.install(FlowEntry(m, [Output(1)], priority=2))
        table.install(FlowEntry(m, [Output(2)], priority=3))
        assert table.remove(m, priority=3) == 1
        assert len(table) == 1
        assert table.entries[0].priority == 2

    def test_remove_by_cookie(self):
        table = FlowTable()
        table.install(FlowEntry(Match(), [Output(1)], cookie=42))
        table.install(FlowEntry(Match(), [Output(2)], cookie=43))
        assert table.remove_by_cookie(42) == 1
        assert len(table) == 1

    def test_group_all_replicates(self):
        table = FlowTable()
        table.install_group(
            GroupEntry(
                group_id=1,
                buckets=[
                    [SetField("ip_dst", ip(11)), Output(1)],
                    [SetField("ip_dst", ip(12)), Output(2)],
                    [SetField("ip_dst", ip(13)), Output(3)],
                ],
            )
        )
        table.install(FlowEntry(Match(), [Group(1)]))
        emissions, _, _ = table.apply(pkt(), 1)
        assert sorted((port, int(p.ip_dst)) for port, p in emissions) == [
            (1, 11),
            (2, 12),
            (3, 13),
        ]
        # Replicas are distinct packets sharing wire content.
        uids = {p.uid for _, p in emissions}
        tags = {p.content_tag for _, p in emissions}
        assert len(uids) == 3 and len(tags) == 1

    def test_group_byte_count_charges_every_emitted_copy(self):
        """Multicast accounting: byte_count sums post-rewrite emission sizes.

        Regression for the old behaviour of charging the pre-rewrite ingress
        size once no matter how many bucket copies left the switch."""
        table = FlowTable()
        table.install_group(
            GroupEntry(
                group_id=1,
                buckets=[
                    [SetField("ip_dst", ip(11)), Output(1)],
                    [SetField("ip_dst", ip(12)), Output(2)],
                    # This copy grows by the MPLS shim — sizes differ per copy.
                    [PushMpls(7), Output(3)],
                ],
            )
        )
        e = FlowEntry(Match(), [Group(1)])
        table.install(e)
        p = pkt()
        emissions, _, _ = table.apply(p, 1)
        assert e.packet_count == 1
        assert e.byte_count == sum(out.size for _, out in emissions)
        assert e.byte_count == 3 * p.size + 4  # two plain copies + one shimmed

    def test_multi_output_byte_count_charges_each_emission(self):
        table = FlowTable()
        e = FlowEntry(Match(), [Output(1), Output(2)])
        table.install(e)
        p = pkt()
        table.apply(p, 1)
        assert e.byte_count == 2 * p.size

    def test_drop_entry_counts_ingress_bytes(self):
        table = FlowTable()
        e = FlowEntry(Match(), [Drop()])
        table.install(e)
        p = pkt()
        table.apply(p, 1)
        assert e.packet_count == 1 and e.byte_count == p.size

    def test_missing_group_raises(self):
        table = FlowTable()
        table.install(FlowEntry(Match(), [Group(404)]))
        with pytest.raises(TableMissError):
            table.apply(pkt(), 1)

    def test_remove_group(self):
        table = FlowTable()
        table.install_group(GroupEntry(1, [[Output(1)]]))
        table.remove_group(1)
        assert table.groups == {}
