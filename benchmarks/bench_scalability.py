"""Sec VI-C: MC routing calculation scales O(|F|) in the m-flow count.

Measures the controller's real planning compute per channel request.  The
paper's claim: thanks to the hash-based collision avoidance there is nearly
no extra routing-calculation overhead, and cost is linear in the number of
m-flows per channel.

Also drives a full end-to-end MIC scenario on a k=8 fat tree (80 switches,
128 hosts) — the topology scale the indexed classification pipeline exists
for — and the control-plane scale-out sweep: channel-setup churn throughput
vs controller shard count (``MimicController(shards=N)``), whose wall time,
RSS and profile go to ``benchmarks/results/shard_scaleout.json``.

Set ``BENCH_QUICK=1`` to trim the sweeps for CI (``make bench-quick``).
"""

import json
import os
import pathlib
import resource
import time

from repro.bench import (
    FigureResult,
    mic_fat_tree_scenario,
    run_shard_churn,
    scalability_routing_calculation,
    scalability_vs_fabric,
)

QUICK = bool(os.environ.get("BENCH_QUICK"))

FLOW_COUNTS = (1, 2) if QUICK else (1, 2, 4, 8)
FABRIC_KS = (4, 6) if QUICK else (4, 6, 8)
SCENARIO_PAIRS = 2 if QUICK else 4

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Shard scale-out sweep: fat_tree(8) churn in full, fat_tree(4) in quick.
SHARD_COUNTS = (1, 2, 4)
SHARD_K = 4 if QUICK else 8
SHARD_CLIENTS = 8 if QUICK else 16
SHARD_ROUNDS = 2 if QUICK else 3
SHARD_SEED = 0
# The simulated scale-out floor at 4 shards vs 1: the acceptance bar is
# 1.5x at full scale; the quick fabric has fewer edge switches to spread
# ownership over, so its floor is lower.
SHARD_MIN_SPEEDUP = 1.2 if QUICK else 1.5


def test_scalability_routing_calc(benchmark, save_table):
    result = benchmark.pedantic(
        lambda: scalability_routing_calculation(flow_counts=FLOW_COUNTS),
        rounds=1, iterations=1,
    )
    save_table("scalability_routing_calc", result)

    times = [result.value("MIC plan", n) for n in FLOW_COUNTS]
    # Monotone growth with |F| ...
    assert times[0] < times[-1]
    # ... and roughly linear: n flows cost no more than ~2n x one flow
    # (generous bound; superlinear growth would flag an algorithmic bug).
    assert times[-1] < times[0] * (FLOW_COUNTS[-1] // FLOW_COUNTS[0]) * 2
    # Absolute cost is tiny: planning a single-flow channel takes well under
    # ten milliseconds of controller compute even in pure Python.
    assert times[0] < 10e-3


def test_scalability_vs_fabric(benchmark, save_table):
    result = benchmark.pedantic(
        lambda: scalability_vs_fabric(ks=FABRIC_KS), rounds=1, iterations=1,
    )
    save_table("scalability_vs_fabric", result)

    labels = result.xs()
    times = [result.value("plan time", x) for x in labels]
    # Warm-cache planning stays in the low-millisecond range even on a k=8
    # fat-tree (128 hosts) — the hash machinery is fabric-size independent;
    # only cached path structures grow.  Generous bound: this is wall time
    # on a possibly-contended CPU.
    assert all(t < 60e-3 for t in times)


def test_fat_tree8_mic_scenario(benchmark, save_table):
    """End-to-end channels + echo on fat_tree(8): 80 switches, 128 hosts."""
    result = benchmark.pedantic(
        lambda: mic_fat_tree_scenario(k=8, n_pairs=SCENARIO_PAIRS),
        rounds=1, iterations=1,
    )
    save_table("fat_tree8_mic_scenario", result)

    assert result.value("scenario", "switches") == 80
    assert result.value("scenario", "hosts") == 128
    # Every channel came up and echoed its payload across the fabric.
    assert result.value("scenario", "reply_ok") == 1.0
    assert result.value("scenario", "mic_rules_total") > 0


def test_shard_scaleout(benchmark, save_table):
    """Channel setups/sec vs controller shard count under churn.

    Runs the serialized-CPU churn scenario once per shard count and gates
    on the *simulated* throughput ratio (machine-independent); wall time,
    RSS and the 4-shard profile land in ``results/shard_scaleout.json``.
    """
    t0 = time.perf_counter()
    results = benchmark.pedantic(
        lambda: {
            shards: run_shard_churn(
                k=SHARD_K, shards=shards, clients=SHARD_CLIENTS,
                rounds=SHARD_ROUNDS, seed=SHARD_SEED,
                profile=(shards == SHARD_COUNTS[-1]),
            )
            for shards in SHARD_COUNTS
        },
        rounds=1, iterations=1,
    )
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rates = {s: results[s].setups_per_sim_s for s in SHARD_COUNTS}
    table = FigureResult(
        figure="Scale-out", title="channel setups/sec vs controller shards",
        x_label="shards", y_label="setups per simulated second", unit="/s",
    )
    for s in SHARD_COUNTS:
        table.add("setup rate", s, rates[s])
    save_table("shard_scaleout", table)

    expected = SHARD_CLIENTS * SHARD_ROUNDS
    for s in SHARD_COUNTS:
        assert results[s].setups == expected
        assert results[s].teardowns == expected
    # More shards must never be slower, and 4 shards must clear the
    # scale-out floor over the single-shard controller.
    assert rates[2] >= rates[1]
    speedup = rates[4] / rates[1]
    assert speedup >= SHARD_MIN_SPEEDUP, (
        f"4-shard scale-out only {speedup:.2f}x (floor {SHARD_MIN_SPEEDUP}x)"
    )
    # Ownership routing actually spread the work: with >= 2 shards some
    # installs were issued by a non-owning shard and forwarded.
    assert results[4].remote_installs > 0
    assert sum(1 for n in results[4].requests_by_shard.values() if n) >= 2

    profile = results[SHARD_COUNTS[-1]].profile
    assert profile is not None
    assert profile["attributed_fraction"] >= 0.90, (
        f"only {profile['attributed_fraction']:.1%} of wall time attributed "
        "to contracted subsystems"
    )
    # The ownership-map routing frames fired (the new contracted subsystem).
    by_name = {row["name"]: row for row in profile["subsystems"]}
    assert by_name["controlplane.route"]["counters"]["requests.routed"] > 0

    doc = {
        "bench": "shard_scaleout",
        "quick": QUICK,
        "params": {
            "k": SHARD_K, "clients": SHARD_CLIENTS, "rounds": SHARD_ROUNDS,
            "seed": SHARD_SEED, "shard_counts": list(SHARD_COUNTS),
        },
        "fabric": {
            "hosts": results[1].hosts, "switches": results[1].switches,
        },
        "wall_s": round(wall_s, 3),
        # process-wide peak (includes interpreter + earlier benches in the
        # same session)
        "peak_rss_mb": round(peak_rss_mb, 1),
        # wall-clock throughput of the whole sweep; the scale-out claim
        # itself is the simulated setups_per_sim_s ratio below, which
        # machines cannot perturb.
        "channels_per_s": round(len(SHARD_COUNTS) * expected / wall_s, 1),
        "setups_per_sim_s": {
            str(s): round(rates[s], 1) for s in SHARD_COUNTS
        },
        "speedup_4_shards": round(speedup, 2),
        "remote_installs": {
            str(s): results[s].remote_installs for s in SHARD_COUNTS
        },
        "profile": profile,
    }
    # replaces the figure JSON save_table wrote: the rates are in the document
    (RESULTS_DIR / "shard_scaleout.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"\nshard scale-out: fat_tree({SHARD_K}) {SHARD_CLIENTS} clients x "
        f"{SHARD_ROUNDS} rounds — "
        + ", ".join(f"{s} shards: {rates[s]:.0f}/sim-s" for s in SHARD_COUNTS)
        + f" ({speedup:.2f}x at 4)"
    )
