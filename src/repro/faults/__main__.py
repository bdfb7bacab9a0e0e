"""CLI for the fault-injection layer.

``python -m repro.faults run`` executes the seeded chaos scenario on the
4-ary fat-tree — link flaps, a parked flow, a switch crash/resync, and a
flow-mod loss window — and prints the human-readable resilience scorecard
(plus the fault timeline with ``--timeline``).

``python -m repro.faults scorecard`` runs the same scenario and prints the
deterministic JSON scorecard, optionally writing it to a file (``-o``) —
the CI artifact format.
"""

from __future__ import annotations

import argparse
import sys

from .chaos import run_chaos
from .scorecard import format_scorecard, scorecard_json


def _run(args: argparse.Namespace):
    sanitizer = None
    if getattr(args, "sanitize", False):
        from ..analysis.sanitizer import SimSanitizer

        sanitizer = SimSanitizer()
    card, dep = run_chaos(
        seed=args.seed,
        n_channels=args.channels,
        probe_period_s=args.probe_period,
        detection_latency_s=args.detection_latency,
        sanitizer=sanitizer,
        strategy=args.strategy,
        shards=args.shards,
    )
    return card, dep, sanitizer


def _sanitizer_status(sanitizer) -> int:
    """Print the sanitizer report (to stderr); exit code contribution."""
    if sanitizer is None:
        return 0
    print(sanitizer.report(), file=sys.stderr)
    return 1 if sanitizer.findings else 0


def _cmd_run(args: argparse.Namespace) -> int:
    card, dep, sanitizer = _run(args)
    if args.timeline:
        print("fault timeline:")
        for at_s, desc in [(e["at_s"], e["event"])
                           for e in card["faults"]["timeline"]]:
            print(f"  {at_s:8.3f}s  {desc}")
        print()
    print(format_scorecard(card))
    rc = 0 if card["repair"]["parked_remaining"] == 0 else 1
    return max(rc, _sanitizer_status(sanitizer))


def _cmd_scorecard(args: argparse.Namespace) -> int:
    card, _dep, sanitizer = _run(args)
    text = scorecard_json(card)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return _sanitizer_status(sanitizer)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="scenario seed")
    p.add_argument("--channels", type=int, default=3, choices=range(3, 9),
                   metavar="{3..8}",
                   help="number of mimic channels, 3 to 8 (default 3)")
    p.add_argument("--probe-period", type=float, default=0.2,
                   help="seconds between availability probes")
    p.add_argument("--detection-latency", type=float, default=0.002,
                   help="failure-detection latency in seconds")
    from ..anonymity import STRATEGIES

    p.add_argument("--strategy", default="mic", choices=sorted(STRATEGIES),
                   help="anonymity strategy the controller runs (default mic)")
    p.add_argument("--sanitize", action="store_true",
                   help="attach the race/determinism sanitizer; its report "
                        "goes to stderr and findings fail the run")
    p.add_argument("--shards", type=int, default=1,
                   help="controller shards (default 1; >= 2 adds a "
                        "shard-crash fault and a controlplane scorecard "
                        "section)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault injection and the resilience scorecard.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the chaos scenario, print the scorecard")
    _add_common(p_run)
    p_run.add_argument("--timeline", action="store_true",
                       help="also print the fault timeline")
    p_run.set_defaults(fn=_cmd_run)

    p_card = sub.add_parser("scorecard",
                            help="run the scenario, print the JSON scorecard")
    _add_common(p_card)
    p_card.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p_card.set_defaults(fn=_cmd_scorecard)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
