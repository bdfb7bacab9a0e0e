"""Hybrid-mode scale benchmark: 10k+ concurrent channels on fat_tree(16).

A full run drives 10,000 concurrent transfers over a 1,024-host fat-tree in
hybrid fidelity (the hash-sampled packet subset rides real TCP; everything
else advances as fluid rates) with the self-profiler hooked, and writes wall
time, peak RSS, channels/second and the profile section to
``benchmarks/results/hybrid_scale.json``.  An Observer snapshot of the same
run plus the profile's "top" table land next to it, so
``python -m repro.obs summarize`` / ``prof-top`` work on hybrid runs end
to end.

Set ``BENCH_QUICK=1`` for the CI-sized slice: fat_tree(8), 2,000 channels.
"""

import json
import os
import pathlib
import resource
import time

from repro.obs.exporters import to_json
from repro.obs.prof import format_prof_top
from repro.bench import run_hybrid_scenario
from repro.bench.hybrid_scenario import FRVM_LANES

QUICK = bool(os.environ.get("BENCH_QUICK"))
# Anonymity traffic model to apply at scale ("mic" | "tarn" | "frvm").
STRATEGY = os.environ.get("BENCH_STRATEGY", "mic")
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

K = 8 if QUICK else 16
CHANNELS = 2_000 if QUICK else 10_000
PAYLOAD_BYTES = 500_000 if QUICK else 1_000_000
SAMPLE_RATE = 0.002
SEED = 7
# Generous wall ceiling (CI machines vary); a full local run takes ~20s.
WALL_BUDGET_S = 120.0 if QUICK else 300.0


def test_hybrid_scale(benchmark):
    t0 = time.perf_counter()
    r = benchmark.pedantic(
        lambda: run_hybrid_scenario(
            k=K, channels=CHANNELS, payload_bytes=PAYLOAD_BYTES,
            sample_rate=SAMPLE_RATE, seed=SEED, observe=True, profile=True,
            time_limit_s=120.0, strategy=STRATEGY,
        ),
        rounds=1, iterations=1,
    )
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every lane ran to completion inside the simulated-time limit.
    assert r.lanes == CHANNELS * (FRVM_LANES if STRATEGY == "frvm" else 1)
    assert r.fluid_flows + r.packet_flows == r.lanes
    assert r.fluid_finished == r.fluid_flows
    assert r.packet_finished == r.packet_flows
    assert r.packet_flows > 0, "sampling produced no packet-level channels"
    assert wall_s < WALL_BUDGET_S

    # The contracted subsystems must explain (nearly) the whole run — if
    # attribution drops, something hot is running outside the profiler's
    # contract and the document's profile section stops being honest.
    assert r.profile is not None
    assert r.profile["attributed_fraction"] >= 0.90, (
        f"only {r.profile['attributed_fraction']:.1%} of wall time attributed "
        "to contracted subsystems"
    )

    doc = {
        "bench": "hybrid_scale",
        "quick": QUICK,
        "params": {
            "k": K, "channels": CHANNELS, "payload_bytes": PAYLOAD_BYTES,
            "sample_rate": SAMPLE_RATE, "seed": SEED, "strategy": STRATEGY,
        },
        "fabric": {"hosts": r.hosts, "switches": r.switches},
        "wall_s": round(wall_s, 3),
        # process-wide peak (includes interpreter + test harness overhead)
        "peak_rss_mb": round(peak_rss_mb, 1),
        "channels_per_s": round(CHANNELS / wall_s, 1),
        "sim_time_limit_hit": (
            r.fluid_finished < r.fluid_flows or r.packet_finished < r.packet_flows
        ),
        "fluid_flows": r.fluid_flows,
        "packet_flows": r.packet_flows,
        "epochs": r.epochs,
        "resolves": r.resolves,
        "bytes_advanced": r.bytes_advanced,
        "debited_bytes": r.debited_bytes,
        "rules_installed": r.rules_installed,
        "mean_fluid_goodput_bps": r.mean_goodput_bps("fluid"),
        "mean_packet_goodput_bps": r.mean_goodput_bps("packet"),
        "profile": r.profile,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "hybrid_scale.json").write_text(json.dumps(doc, indent=2) + "\n")
    snap_path = RESULTS_DIR / "hybrid_scale_snapshot.json"
    snap_path.write_text(to_json(r.observer.snapshot()) + "\n")
    (RESULTS_DIR / "hybrid_scale_prof_top.txt").write_text(
        format_prof_top(r.profile) + "\n"
    )
    print(
        f"\nhybrid scale: fat_tree({K}) {CHANNELS} channels "
        f"({r.packet_flows} packet / {r.fluid_flows} fluid) "
        f"wall={wall_s:.1f}s rss={peak_rss_mb:.0f}MB "
        f"{CHANNELS / wall_s:.0f} chan/s epochs={r.epochs} "
        f"prof={r.profile['attributed_fraction']:.1%} attributed"
    )
    print(format_prof_top(r.profile))
