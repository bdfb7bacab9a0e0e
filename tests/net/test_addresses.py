"""Unit and property tests for address types."""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.net import IPv4Addr, MacAddr, Subnet, ip, mac


class TestIPv4:
    def test_parse_roundtrip(self):
        assert str(IPv4Addr.parse("10.0.0.1")) == "10.0.0.1"

    def test_parse_extremes(self):
        assert int(IPv4Addr.parse("0.0.0.0")) == 0
        assert int(IPv4Addr.parse("255.255.255.255")) == 0xFFFFFFFF

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            IPv4Addr.parse(bad)

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            IPv4Addr(-1)
        with pytest.raises(ValueError):
            IPv4Addr(1 << 32)

    def test_ordering_and_equality(self):
        a, b = ip("10.0.0.1"), ip("10.0.0.2")
        assert a < b and a != b and a == ip("10.0.0.1")

    def test_hashable(self):
        assert len({ip("10.0.0.1"), ip("10.0.0.1"), ip("10.0.0.2")}) == 2

    def test_add_offset(self):
        assert ip("10.0.0.1") + 5 == ip("10.0.0.6")

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_int_str_roundtrip(self, v):
        assert int(IPv4Addr.parse(str(IPv4Addr(v)))) == v

    def test_coercion_forms(self):
        assert ip(167772161) == ip("10.0.0.1") == ip(ip("10.0.0.1"))

    def test_text_form_is_memoised_per_value(self):
        a, b = IPv4Addr(0x0A000001), IPv4Addr(0x0A000001)
        assert a is not b
        assert str(a) == str(b) == "10.0.0.1"
        assert str(a) is str(b)  # equal addresses share one string
        assert repr(a) == "IPv4Addr('10.0.0.1')"
        assert str(IPv4Addr(0x0A000002)) == "10.0.0.2"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @example(0)
    @example(0xFFFFFFFF)
    def test_text_is_the_dotted_quad_rendered_at_construction(self, v):
        a = IPv4Addr(v)
        old = f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"
        assert str(a) == a.text == old
        assert a.text is IPv4Addr(v).text  # equal addresses share the string
        assert repr(a) == f"IPv4Addr({old!r})"  # the field is not in the repr

    @given(st.integers(min_value=0, max_value=0xFFFFFFFE),
           st.integers(min_value=0, max_value=0xFFFFFFFE))
    def test_text_field_leaves_the_value_semantics_alone(self, v, w):
        a, b = IPv4Addr(v), IPv4Addr(w)
        assert (a == b) == (v == w) and (a < b) == (v < w) and (a <= b) == (v <= w)
        assert hash(a) == hash((v,))  # the dataclass hash over `value` alone
        assert a != v and a != MacAddr(v)  # a value type, not an int
        assert (a + 1).value == v + 1 and (a + 1).text == str(IPv4Addr(v + 1))
        back = pickle.loads(pickle.dumps(a))
        assert back == a and back.text == a.text and hash(back) == hash(a)
        assert [f.name for f in dataclasses.fields(a) if f.compare] == ["value"]

    def test_replace_renders_the_text_again(self):
        a = ip("10.0.0.1")
        b = dataclasses.replace(a, value=a.value + 1)
        assert b == ip("10.0.0.2") and b.text == "10.0.0.2" and a.text == "10.0.0.1"
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.text = "10.9.9.9"
        with pytest.raises(TypeError):
            IPv4Addr(1, "1.1.1.1")  # text is not a constructor argument


class TestMac:
    def test_parse_roundtrip(self):
        assert str(MacAddr.parse("02:00:00:00:00:01")) == "02:00:00:00:00:01"

    @pytest.mark.parametrize("bad", ["02:00:00:00:00", "02:00:00:00:00:00:00", "zz:00:00:00:00:00"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            MacAddr.parse(bad)

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            MacAddr(1 << 48)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_int_str_roundtrip(self, v):
        assert int(MacAddr.parse(str(MacAddr(v)))) == v

    def test_coercion(self):
        assert mac(1) == mac("00:00:00:00:00:01")


class TestSubnet:
    def test_parse_and_str(self):
        s = Subnet.parse("10.0.0.0/24")
        assert str(s) == "10.0.0.0/24"
        assert s.size == 256

    def test_contains(self):
        s = Subnet.parse("10.0.0.0/24")
        assert ip("10.0.0.17") in s
        assert ip("10.0.1.17") not in s

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Subnet(ip("10.0.0.1"), 24)

    def test_missing_prefix_rejected(self):
        with pytest.raises(ValueError):
            Subnet.parse("10.0.0.0")

    def test_hosts_excludes_network_and_broadcast(self):
        s = Subnet.parse("10.0.0.0/30")
        assert list(s.hosts()) == [ip("10.0.0.1"), ip("10.0.0.2")]

    def test_nth(self):
        s = Subnet.parse("10.0.0.0/24")
        assert s.nth(5) == ip("10.0.0.5")
        with pytest.raises(ValueError):
            s.nth(256)

    @given(st.integers(min_value=0, max_value=32))
    def test_mask_has_prefix_len_bits(self, plen):
        s = Subnet(ip(0), plen)
        assert bin(s.mask).count("1") == plen
