"""One classification per hop, and never a stale one.

``Switch.receive`` classifies the packet to price the pipeline delay and
hands the entry it found — together with ``FlowTable.version`` — to
``_classify``, which reuses it.  Whatever changes the table *between* the
two (a rule installed or removed, a cookie wiped, a crash) must decide the
packet's fate exactly as a fresh lookup at ``_classify`` time would; the
scenarios below land each mutation in the middle of the second switch's
pipeline delay on a scripted h1 — s1 — s2 — h2 chain, with the lookup cache
on and with ``cache_size=0``.
"""

import pytest

from repro.net import (
    Drop,
    FlowEntry,
    GroupEntry,
    Match,
    Network,
    Output,
    SetField,
    linear,
)

CACHE_SIZES = pytest.mark.parametrize("cache_size", [1024, 0], ids=["cached", "uncached"])


class Chain:
    """h1 — s1 — s2 — h2 with a plain forwarding rule on each switch."""

    def __init__(self, cache_size: int, rule_on_s2: bool = True):
        self.net = net = Network(linear(2, hosts_per_switch=1))
        self.sim = net.sim
        self.s1, self.s2 = net.switch("s1"), net.switch("s2")
        self.h1, self.h2 = net.host("h1"), net.host("h2")
        for sw in (self.s1, self.s2):
            sw.table.cache_size = cache_size
        self.to_h2 = Match(ip_dst=self.h2.ip)
        self.s1.table.install(
            FlowEntry(self.to_h2, [Output(net.port("s1", "s2"))], priority=10)
        )
        if rule_on_s2:
            self.s2.table.install(self.base_rule())
        self.delivered: list = []
        self.h2.bind("tcp", 80, lambda _host, p: self.delivered.append(p))
        self.h2.bind("tcp", 9999, lambda _host, p: self.delivered.append(p))
        self.punted: list = []
        self.s2.connect_controller(
            lambda sw, p, in_port: self.punted.append((sw.name, p.uid, in_port))
        )

    def base_rule(self) -> FlowEntry:
        return FlowEntry(self.to_h2, [Output(self.net.port("s2", "h2"))], priority=10)

    def mutate_s2_mid_pipeline(self, mutate) -> None:
        """Run ``mutate()`` halfway through s2's pipeline delay for the packet."""
        half = self.net.params.switch_forward_delay_s / 2

        def tap(_packet, _port, direction):
            if direction == "in":
                self.sim.call_later(half, mutate)

        self.s2.add_mirror_tap(tap)

    def send(self):
        pkt = self.h1.make_packet(self.h2.ip, dport=80, payload_size=100)
        self.h1.send_packet(pkt)
        self.net.run()
        return pkt


@CACHE_SIZES
def test_untouched_table_forwards_and_classifies_once_per_hop(cache_size):
    chain = Chain(cache_size)
    chain.send()
    chain.send()
    assert [p.dport for p in chain.delivered] == [80, 80]
    hops = chain.s1.packets_forwarded + chain.s2.packets_forwarded
    assert hops == 4
    lookups = sum(
        sw.table.cache_hits + sw.table.cache_misses for sw in (chain.s1, chain.s2)
    )
    # the lookup counters only move on the cached path
    assert lookups == (hops if cache_size else 0)
    if cache_size:
        assert chain.s2.table.cache_misses == 1 and chain.s2.table.cache_hits == 1


@CACHE_SIZES
def test_rule_installed_mid_pipeline_takes_the_packet(cache_size):
    chain = Chain(cache_size)
    chain.mutate_s2_mid_pipeline(
        lambda: chain.s2.table.install(FlowEntry(chain.to_h2, [Drop()], priority=20))
    )
    chain.send()
    assert chain.delivered == [] and chain.punted == []
    assert chain.s2.packets_forwarded == 0
    shadow, base = chain.s2.table.entries
    assert (shadow.packet_count, base.packet_count) == (1, 0)


@CACHE_SIZES
def test_rule_installed_mid_pipeline_turns_a_miss_into_a_forward(cache_size):
    chain = Chain(cache_size, rule_on_s2=False)
    chain.mutate_s2_mid_pipeline(lambda: chain.s2.table.install(chain.base_rule()))
    chain.send()
    assert len(chain.delivered) == 1 and chain.punted == []
    assert chain.s2.packets_punted == 0


@CACHE_SIZES
def test_rule_removed_mid_pipeline_punts_like_a_miss(cache_size):
    chain = Chain(cache_size)
    chain.mutate_s2_mid_pipeline(lambda: chain.s2.table.remove(chain.to_h2))
    pkt = chain.send()
    assert chain.delivered == []
    assert chain.s2.packets_punted == 1 and chain.s2.packets_forwarded == 0
    assert chain.punted == [("s2", pkt.uid, chain.net.port("s2", "s1"))]


@CACHE_SIZES
def test_remove_by_cookie_mid_pipeline_falls_through_to_the_next_rule(cache_size):
    chain = Chain(cache_size)
    rewriting = FlowEntry(
        chain.to_h2,
        [SetField("dport", 9999), Output(chain.net.port("s2", "h2"))],
        priority=20,
        cookie=7,
    )
    chain.s2.table.install(rewriting)
    chain.mutate_s2_mid_pipeline(lambda: chain.s2.table.remove_by_cookie(7))
    chain.send()
    # the rewriting rule was what `receive` resolved; the plain one applies
    assert [p.dport for p in chain.delivered] == [80]
    assert rewriting.packet_count == 0
    assert chain.s2.table.entries[0].packet_count == 1


@CACHE_SIZES
def test_crash_mid_pipeline_kills_the_packet(cache_size):
    chain = Chain(cache_size)
    chain.mutate_s2_mid_pipeline(chain.s2.crash)
    chain.send()
    assert chain.delivered == [] and chain.punted == []
    assert chain.s2.packets_dropped_dead == 1
    assert chain.s2.packets_forwarded == 0 and chain.s2.packets_punted == 0


@CACHE_SIZES
def test_crash_and_reboot_mid_pipeline_leaves_an_empty_table_to_miss_on(cache_size):
    chain = Chain(cache_size)

    def power_cycle():
        chain.s2.crash()
        chain.s2.reboot()

    chain.mutate_s2_mid_pipeline(power_cycle)
    chain.send()
    assert chain.delivered == []
    assert chain.s2.packets_dropped_dead == 0
    assert chain.s2.packets_punted == 1 and len(chain.punted) == 1


def test_version_moves_on_every_mutation_and_only_on_mutations():
    chain = Chain(cache_size=1024)
    table = chain.s2.table
    seen = [table.version]

    def moved() -> bool:
        seen.append(table.version)
        return seen[-1] == seen[-2] + 1

    table.remove_group(99)  # absent group
    table.remove_by_cookie(12345)  # nothing tagged
    table.remove(Match(ip_dst=chain.h1.ip))  # no such match
    table.lookup(chain.h1.make_packet(chain.h2.ip), 1)  # reads never count
    assert table.version == seen[0]
    table.install(FlowEntry(Match(ip_dst=chain.h1.ip), [Drop()], cookie=5))
    assert moved()
    table.install_group(GroupEntry(1, [[Output(1)]], cookie=5))
    assert moved()
    table.remove_groups_by_cookie(5)
    assert moved()
    table.remove_by_cookie(5)
    assert moved()
    table.remove(chain.to_h2)
    assert moved()
    table.clear()
    assert moved()
    with pytest.raises(AttributeError):
        table.version = 0  # read-only


def test_apply_reuses_a_resolved_entry_only_at_the_version_it_was_resolved_at():
    chain = Chain(cache_size=1024)
    table = chain.s2.table
    in_port = chain.net.port("s2", "s1")
    pkt = chain.h1.make_packet(chain.h2.ip, dport=80, payload_size=10)
    resolved, version = table.lookup(pkt, in_port), table.version
    lookups = table.cache_hits + table.cache_misses

    _, _, entry = table.apply(pkt.copy(), in_port, resolved, version)
    assert entry is resolved
    assert table.cache_hits + table.cache_misses == lookups  # no second lookup

    table.install(FlowEntry(chain.to_h2, [Drop()], priority=20))
    emissions, to_controller, entry = table.apply(pkt.copy(), in_port, resolved, version)
    assert entry is not resolved and entry.priority == 20
    assert emissions == [] and not to_controller
    assert table.cache_hits + table.cache_misses == lookups + 1

    # a resolved miss is reusable too: None at the current version stays a miss
    other = chain.h1.make_packet(chain.h1.ip, dport=80)
    assert table.lookup(other, in_port) is None
    assert table.apply(other, in_port, None, table.version) == ([], True, None)
