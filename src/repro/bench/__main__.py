"""Command-line figure regenerator.

Usage::

    python -m repro.bench                 # every figure, full sweeps
    python -m repro.bench fig7 fig9a      # a subset
    python -m repro.bench --quick         # reduced sweeps (smoke test)
    python -m repro.bench --list
    python -m repro.bench hybrid --strategy tarn   # hybrid scale scenario
                                          # under an anonymity traffic model

Each experiment prints the paper-figure data table to stdout; pass
``--save DIR`` to also write the tables as text files (and, for figures,
machine-readable JSON).
"""

# The harness times real sweeps for progress reporting; sim results stay
# deterministic.  # lint: file-allow(wall-clock)

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .experiments import (
    fig7_route_setup,
    fig8_latency,
    fig9a_throughput_vs_path_length,
    fig9b_throughput_vs_flows,
    fig9c_cpu_usage,
    scalability_routing_calculation,
    scalability_vs_fabric,
)

EXPERIMENTS = {
    "fig7": ("Fig 7: route setup time", lambda quick: fig7_route_setup(
        route_lengths=(1, 3, 5) if quick else (1, 2, 3, 4, 5))),
    "fig8": ("Fig 8: echo latency", lambda quick: fig8_latency(
        trials=1 if quick else 3)),
    "fig9a": ("Fig 9(a): throughput vs route length",
              lambda quick: fig9a_throughput_vs_path_length(
                  route_lengths=(1, 3, 5) if quick else (1, 2, 3, 4, 5))),
    "fig9b": ("Fig 9(b): throughput vs flow count",
              lambda quick: fig9b_throughput_vs_flows(
                  flow_counts=(1, 4) if quick else (1, 2, 4, 8),
                  seeds=(0,) if quick else (0, 1))),
    "fig9c": ("Fig 9(c): CPU usage", lambda quick: fig9c_cpu_usage(
        route_lengths=(1, 3) if quick else (1, 3, 5))),
    "scalability": ("Sec VI-C: routing calculation",
                    lambda quick: scalability_routing_calculation(
                        flow_counts=(1, 4) if quick else (1, 2, 4, 8))),
    "fabric": ("Sec VI-C: planning cost vs fabric size",
               lambda quick: scalability_vs_fabric()),
}


def _hybrid_main(argv: list[str]) -> int:
    """``python -m repro.bench hybrid``: one hybrid scale run, summarized."""
    from repro.anonymity import STRATEGIES

    from .hybrid_scenario import run_hybrid_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench hybrid",
        description="Run the hybrid fluid/packet scale scenario once.",
    )
    parser.add_argument("--k", type=int, default=8, help="fat-tree arity")
    parser.add_argument("--channels", type=int, default=500)
    parser.add_argument("--payload-bytes", type=int, default=200_000)
    parser.add_argument("--sample-rate", type=float, default=0.01,
                        help="packet-fidelity sampling rate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strategy", default="mic",
                        choices=sorted(STRATEGIES),
                        help="anonymity traffic model to apply (default mic)")
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="simulated-seconds ceiling")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    r = run_hybrid_scenario(
        k=args.k, channels=args.channels, payload_bytes=args.payload_bytes,
        sample_rate=args.sample_rate, seed=args.seed,
        time_limit_s=args.time_limit, strategy=args.strategy,
    )
    wall_s = time.perf_counter() - t0
    print(
        f"hybrid scale: fat_tree({r.k}) strategy={r.strategy} "
        f"{r.channels} channels -> {r.lanes} lanes "
        f"({r.packet_flows} packet / {r.fluid_flows} fluid)"
    )
    print(
        f"  finished: {r.fluid_finished}/{r.fluid_flows} fluid, "
        f"{r.packet_finished}/{r.packet_flows} packet "
        f"in {r.sim_time_s:.4f} sim-s ({wall_s:.1f}s wall)"
    )
    print(
        f"  overhead: {r.rules_installed} rules installed, "
        f"{r.rotations} rotations, {r.epochs} epochs, "
        f"{r.resolves} solver resolves"
    )
    print(
        f"  goodput: fluid mean {r.mean_goodput_bps('fluid') / 1e6:.2f} Mbps, "
        f"packet mean {r.mean_goodput_bps('packet') / 1e6:.2f} Mbps"
    )
    done = (
        r.fluid_finished == r.fluid_flows
        and r.packet_finished == r.packet_flows
    )
    return 0 if done else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "hybrid":
        return _hybrid_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the MIC paper's evaluation figures.",
    )
    parser.add_argument("figures", nargs="*", metavar="FIGURE",
                        help=f"subset of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--quick", action="store_true",
                        help="reduced parameter sweeps")
    parser.add_argument("--list", action="store_true", help="list figures")
    parser.add_argument("--save", metavar="DIR",
                        help="also write tables under DIR")
    parser.add_argument("--report", metavar="FILE",
                        help="write a combined markdown report to FILE")
    args = parser.parse_args(argv)

    if args.list:
        for key, (title, _fn) in EXPERIMENTS.items():
            print(f"{key:12s} {title}")
        return 0

    chosen = args.figures or list(EXPERIMENTS)
    unknown = [f for f in chosen if f not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    save_dir = pathlib.Path(args.save) if args.save else None
    if save_dir:
        save_dir.mkdir(parents=True, exist_ok=True)

    results = []
    t_start = time.perf_counter()
    for key in chosen:
        title, fn = EXPERIMENTS[key]
        print(f"== {title} ==")
        t0 = time.perf_counter()
        result = fn(args.quick)
        results.append(result)
        table = result.format_table()
        print(table)
        print(f"   ({time.perf_counter() - t0:.1f}s)\n")
        if save_dir:
            (save_dir / f"{key}.txt").write_text(table + "\n")
            (save_dir / f"{key}.json").write_text(result.to_json())
    if args.report:
        from .report import render_report

        notes = "_Reduced sweeps (--quick)._" if args.quick else None
        pathlib.Path(args.report).write_text(
            render_report(results, elapsed_s=time.perf_counter() - t_start,
                          notes=notes)
        )
        print(f"report written to {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
