"""CLI for the observability layer.

``python -m repro.obs contract`` prints the metrics contract table (the
same markdown ``docs/observability.md`` embeds).

``python -m repro.obs demo`` stands up a MIC deployment, runs an echo
exchange with an observer attached, and prints the summary — optionally
exporting the snapshot as JSON (``--json``).

``python -m repro.obs journey`` runs the same deployment with per-packet
journey tracing and a flight recorder attached (plus multicast decoys, so
the ground-truth linkage has something to disambiguate), prints the
per-flow hop table, and can export the run as Perfetto trace-event JSON
(``--perfetto out.json``, loadable at ui.perfetto.dev) or as a journey
dump (``--dump out.json``).

``python -m repro.obs summarize FILE`` re-summarizes a previously exported
JSON snapshot — or, when FILE is a journey dump, prints its hop table.
Snapshots from any schema version render: fields a version predates are
simply skipped.

``python -m repro.obs prof-top FILE`` prints the self-profile "top" table
from a version-2 snapshot (or a bare profile document) — per-subsystem
self/cumulative wall time plus named counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .contract import format_contract_table
from .exporters import write_json
from .journey import format_hop_table, journeys_to_json


def _cmd_contract(args: argparse.Namespace) -> int:
    print(format_contract_table())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from ..core import deploy_mic
    from .observer import Observer

    dep = deploy_mic(seed=args.seed)
    obs = Observer.attach(dep.net, mic=dep.mic, controller=dep.ctrl)
    if args.period > 0:
        obs.start_timeline(args.period)

    server = dep.server("h16", 80)
    alice = dep.endpoint("h1")
    message = b"x" * 400

    def client():
        span = obs.begin_span("bench.setup", protocol="mic-demo")
        stream = yield from alice.connect("h16", service_port=80, n_mns=3)
        span.finish()
        t0 = dep.sim.now
        stream.send(message)
        yield from stream.recv_exactly(len(message))
        obs.histogram("app.echo_rtt_s", protocol="mic-demo").observe(
            dep.sim.now - t0
        )

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(len(message))
        stream.send(data)

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(args.horizon)
    obs.stop_timeline()

    print(obs.summary())
    snap = obs.snapshot()
    if args.json:
        write_json(snap, args.json)
        print(f"wrote JSON snapshot to {args.json}")
    return 0


def _cmd_journey(args: argparse.Namespace) -> int:
    from ..core import deploy_mic
    from .flight import FlightRecorder
    from .journey import JourneyRecorder
    from .perfetto import write_perfetto

    dep = deploy_mic(seed=args.seed)
    flight = FlightRecorder(capacity=args.flight_capacity)
    rec = JourneyRecorder.attach(
        dep.net, sample_rate=args.sample_rate, flight=flight
    )

    server = dep.server("h16", 80)
    alice = dep.endpoint("h1")
    message = b"x" * 400

    def client():
        stream = yield from alice.connect(
            "h16", service_port=80, n_mns=3, decoys=args.decoys
        )
        # Channels exist now: arm the MC's planned rewrites so any
        # divergence from installed intent trips the flight recorder.
        rec.arm_intent(dep.mic)
        stream.send(message)
        yield from stream.recv_exactly(len(message))

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(len(message))
        stream.send(data)

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(args.horizon)

    doc = journeys_to_json(rec, flight)
    print(format_hop_table(doc))
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote journey dump to {args.dump}")
    if args.perfetto:
        write_perfetto(doc, args.perfetto)
        print(f"wrote Perfetto trace to {args.perfetto} "
              "(load it at ui.perfetto.dev)")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "journeys" in doc:
        print(format_hop_table(doc))
        return 0
    version = doc.get("version", 1)
    print(f"snapshot @ t={doc.get('sim_time_s', 0.0):.6f}s (schema v{version})")
    samples = doc.get("samples", [])
    strat = next(
        (s.get("labels", {}).get("strategy") for s in samples
         if s["name"] == "anonymity.strategy"), None,
    )
    if strat is not None:
        print(f"  anonymity: strategy={strat}")
    print(f"  samples: {len(samples)}")
    totals: dict[str, float] = {}
    for s in samples:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["value"]
    for name in sorted(totals):
        print(f"    {name:<28s} total={totals[name]:g}")
    for h in doc.get("histograms", []):
        s = h["summary"]
        labels = ",".join(f"{k}={v}" for k, v in h["labels"].items()) or "-"
        print(
            f"  histogram {h['name']} [{labels}] n={int(s['count'])} "
            f"mean={s['mean']:.3e} p50={s['p50']:.3e} p95={s['p95']:.3e} "
            f"p99={s['p99']:.3e}"
        )
    spans = doc.get("spans", [])
    if spans:
        by_name: dict[str, list[float]] = {}
        for r in spans:
            by_name.setdefault(r["name"], []).append(r["duration_s"])
        for name in sorted(by_name):
            durs = by_name[name]
            print(
                f"  span {name:<18s} n={len(durs)} "
                f"mean={sum(durs) / len(durs):.3e}s total={sum(durs):.3e}s"
            )
    profile = doc.get("profile")
    if profile is not None:
        from .prof import format_prof_top

        print("  " + format_prof_top(profile).replace("\n", "\n  "))
    return 0


def _cmd_prof_top(args: argparse.Namespace) -> int:
    from .prof import format_prof_top

    with open(args.file, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "profile" not in doc and "subsystems" not in doc:
        print(
            f"{args.file}: no profile section (snapshot schema "
            f"v{doc.get('version', 1)}; profiles need a hooked Profiler "
            "and schema v2+)",
            file=sys.stderr,
        )
        return 1
    print(format_prof_top(doc))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro.obs``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability: metrics contract, demo run, summaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    contract = sub.add_parser("contract", help="print the metrics contract table")
    contract.set_defaults(func=_cmd_contract)

    demo = sub.add_parser(
        "demo", help="run an observed MIC echo exchange and print the summary"
    )
    demo.add_argument("--seed", type=int, default=13)
    demo.add_argument("--horizon", type=float, default=10.0,
                      help="sim-seconds to run (default 10)")
    demo.add_argument("--period", type=float, default=0.05,
                      help="timeline sampling period in sim-seconds; 0 disables")
    demo.add_argument("--json", metavar="PATH", help="write JSON snapshot")
    demo.set_defaults(func=_cmd_demo)

    journey = sub.add_parser(
        "journey",
        help="run a journey-traced MIC echo (with decoys) and print hop table",
    )
    journey.add_argument("--seed", type=int, default=13)
    journey.add_argument("--horizon", type=float, default=10.0,
                         help="sim-seconds to run (default 10)")
    journey.add_argument("--decoys", type=int, default=2,
                         help="multicast decoy branches per direction (default 2)")
    journey.add_argument("--sample-rate", type=float, default=1.0,
                         help="journey sampling rate in [0, 1] (default 1)")
    journey.add_argument("--flight-capacity", type=int, default=64,
                         help="flight-recorder ring size per location")
    journey.add_argument("--perfetto", metavar="PATH",
                         help="write Perfetto/Chrome trace-event JSON")
    journey.add_argument("--dump", metavar="PATH",
                         help="write the journey dump as JSON")
    journey.set_defaults(func=_cmd_journey)

    summarize = sub.add_parser(
        "summarize",
        help="summarize an exported JSON snapshot or journey dump",
    )
    summarize.add_argument("file")
    summarize.set_defaults(func=_cmd_summarize)

    prof_top = sub.add_parser(
        "prof-top",
        help="print the self-profile top table from a v2 snapshot "
             "or profile document",
    )
    prof_top.add_argument("file")
    prof_top.set_defaults(func=_cmd_prof_top)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
