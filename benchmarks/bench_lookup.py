"""Classifier microbenchmark: indexed lookup vs the reference linear scan.

Builds a MIC-shaped rule population (exact-match m-flow rewrite rules at
MIC priority, decoy drops above them, a band of L3 ⟨src, dst⟩ pair rules
below — the mix a production edge switch carries) and measures per-lookup
cost three ways:

* ``linear``   — ``lookup_linear`` (``tests/net/flowtable_oracle.py``), the
  reference classifier;
* ``indexed``  — the tuple-space tiers with the lookup cache disabled;
* ``cached``   — the full two-tier pipeline (tiers + lookup cache).

The acceptance bar for the indexed pipeline is a >=10x median speedup over
the reference at 1k installed rules.  Run directly
(``python benchmarks/bench_lookup.py``) or through pytest; both write
``benchmarks/results/lookup_microbench.json``.
"""

import functools
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests" / "net"))

from flowtable_oracle import lookup_linear  # noqa: E402

from repro.net import FlowEntry, FlowTable, Match, Output, Packet, SetField, ip, mac  # noqa: E402

RESULTS = pathlib.Path(__file__).parent / "results"

MIC_PRIORITY = 50
DECOY_PRIORITY = 60
L3_PRIORITY = 10


def build_rules(n_rules: int):
    """A deterministic MIC-like rule population of ``n_rules`` entries.

    Roughly 60% m-flow exact-match rewrite rules, 10% decoy drops, 30%
    L3 pair rules; returns ``(entries, packets)`` where every packet hits
    some rule (uniformly spread over the population).
    """
    entries: list[FlowEntry] = []
    packets: list[Packet] = []
    i = 0
    while len(entries) < n_rules:
        src, dst = ip(0x0A000000 + i), ip(0x0A800000 + i)
        sport, dport = 1024 + (i % 50000), 2048 + (i % 50000)
        kind = i % 10
        if kind < 6:  # m-flow segment rule: exact 5-field match + rewrite
            match = Match(ip_src=src, ip_dst=dst, sport=sport, dport=dport,
                          mpls=(i % 97) + 1)
            actions = [SetField("ip_src", ip(0x0B000000 + i)),
                       SetField("ip_dst", ip(0x0B800000 + i)),
                       Output(1 + i % 4)]
            entries.append(FlowEntry(match, actions, priority=MIC_PRIORITY))
            pkt_mpls = (i % 97) + 1
        elif kind < 7:  # decoy drop above the m-flow band
            match = Match(ip_src=src, ip_dst=dst, sport=sport, dport=dport,
                          mpls=Match.NO_MPLS)
            entries.append(FlowEntry(match, [], priority=DECOY_PRIORITY))
            pkt_mpls = None
        else:  # plain L3 pair rule
            match = Match(ip_src=src, ip_dst=dst)
            entries.append(FlowEntry(match, [Output(1 + i % 4)],
                                     priority=L3_PRIORITY))
            pkt_mpls = None
        packets.append(Packet(
            eth_src=mac(1), eth_dst=mac(2), ip_src=src, ip_dst=dst,
            sport=sport, dport=dport, mpls=pkt_mpls, payload_size=512,
        ))
        i += 1
    return entries, packets


def _time_per_lookup(fn, packets, rounds: int) -> float:
    """Median over ``rounds`` of the mean per-lookup wall time of ``fn``."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for pkt in packets:
            fn(pkt, 1)
        samples.append((time.perf_counter() - t0) / len(packets))
    return statistics.median(samples)


def run(n_rules: int = 1000, rounds: int = 7) -> dict:
    """Measure the three classifier paths over ``n_rules`` installed rules."""
    entries, packets = build_rules(n_rules)

    plain = FlowTable()
    for entry in entries:
        plain.install(entry)
    # Fresh entry objects for the no-cache table: entries belong to one table.
    entries2, _ = build_rules(n_rules)
    uncached = FlowTable(cache_size=0)
    for entry in entries2:
        uncached.install(entry)

    # Sanity before timing: all three paths classify identically here.
    for pkt in packets[:: max(1, n_rules // 50)]:
        a = plain.lookup(pkt, 1)
        b = lookup_linear(plain, pkt, 1)
        assert (a is None) == (b is None) and (
            a is None or a.match.key() == b.match.key()
        )

    linear_s = _time_per_lookup(functools.partial(lookup_linear, plain), packets, rounds)
    indexed_s = _time_per_lookup(uncached.lookup, packets, rounds)
    plain.lookup(packets[0], 1)  # warm the cache structure
    cached_s = _time_per_lookup(plain.lookup, packets, rounds)

    return {
        "n_rules": n_rules,
        "n_lookups_per_round": len(packets),
        "rounds": rounds,
        "linear_s_per_lookup": linear_s,
        "indexed_s_per_lookup": indexed_s,
        "cached_s_per_lookup": cached_s,
        "speedup_indexed": linear_s / indexed_s,
        "speedup_cached": linear_s / cached_s,
    }


def _save(result: dict) -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "lookup_microbench.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    return out


def test_indexed_lookup_at_least_10x_at_1k_rules():
    result = run(n_rules=1000)
    _save(result)
    print(
        f"\nlookup @1k rules: linear {result['linear_s_per_lookup'] * 1e6:.1f}us"
        f"  indexed {result['indexed_s_per_lookup'] * 1e6:.2f}us"
        f" ({result['speedup_indexed']:.0f}x)"
        f"  cached {result['cached_s_per_lookup'] * 1e6:.2f}us"
        f" ({result['speedup_cached']:.0f}x)"
    )
    assert result["speedup_indexed"] >= 10.0
    assert result["speedup_cached"] >= 10.0


if __name__ == "__main__":
    res = run()
    path = _save(res)
    print(json.dumps(res, indent=2))
    print(f"saved -> {path}")
