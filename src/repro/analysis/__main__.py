"""CLI for the static analysis subsystem.

``python -m repro.analysis verify-network`` builds a fat-tree fabric,
establishes a batch of concurrent mimic channels through the real
controller stack, and statically verifies every installed rule — the
acceptance gate for "N concurrent m-flows, zero violations".  The same
run also executes the :mod:`~repro.analysis.taint` anonymity-leak pass
over the source tree (``--code-paths``) and merges its
findings into the report, so the data-plane proof and the code-level leak
scan share one gate.  With ``--metrics-out PATH`` the run additionally
attaches a :class:`repro.obs.Observer` and writes its JSON metrics
snapshot (the artifact CI archives).

``python -m repro.analysis lint`` runs the full pluggable rule engine
(:mod:`repro.analysis.lint`): determinism rules, the FlowTable
encapsulation boundary and the anonymity taint pass, with pragma, SARIF
and ``--explain`` support.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Optional

from . import lint as lint_mod
from .report import Severity, Violation
from .verifier import verify_network


def _cross_pod_pairs(topo, rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Draw host pairs from distinct pods (walks long enough for 3 MNs)."""
    by_pod: dict[int, list[str]] = {}
    for host in topo.hosts():
        pod = topo.graph.nodes[host].get("pod")
        if pod is not None:
            by_pod.setdefault(pod, []).append(host)
    pods = sorted(by_pod)
    if len(pods) < 2:
        raise SystemExit("need a multi-pod topology for verify-network")
    pairs: list[tuple[str, str]] = []
    for _ in range(count):
        pa, pb = rng.sample(pods, 2)
        pairs.append((rng.choice(by_pod[pa]), rng.choice(by_pod[pb])))
    return pairs


def _code_taint_violations(paths: list[str]) -> list[Violation]:
    """Run the endpoint-leak pass over source paths; findings as Violations.

    Missing paths are skipped (an installed package has no ``src/``
    checkout to scan).
    """
    from .rules import get_rule

    present = [p for p in paths if Path(p).exists()]
    if not present:
        return []
    return [
        Violation(
            kind="code-endpoint-leak",
            message=f"{f.path}:{f.line}: {f.message}",
            severity=Severity.WARNING,
        )
        for f in lint_mod.lint_paths(present, rules=[get_rule("endpoint-leak")])
    ]


def _cmd_verify_network(args: argparse.Namespace) -> int:
    # Imported here so `lint` works even if the simulator stack is broken.
    from ..core import deploy_mic
    from ..net import fat_tree

    dep = deploy_mic(fat_tree(args.k), seed=args.seed, observe=bool(args.metrics_out))
    net, mic, obs = dep.net, dep.mic, dep.obs

    rng = random.Random(args.seed)
    n_channels = -(-args.flows // args.flows_per_channel)  # ceil div
    pairs = _cross_pod_pairs(net.topo, rng, n_channels)
    failures: list[str] = []

    def establish(a: str, b: str):
        try:
            yield from mic.establish(
                a, b, service_port=80,
                n_flows=args.flows_per_channel,
                n_mns=args.n_mns,
                decoys=args.decoys,
            )
        except Exception as exc:  # pragma: no cover - driver diagnostics
            failures.append(f"{a}->{b}: {exc}")

    for a, b in pairs:
        net.sim.process(establish(a, b))
    net.run(until=60.0)

    if obs is not None:
        from ..obs import write_json

        write_json(obs.snapshot(), args.metrics_out)
        print(f"metrics snapshot written to {args.metrics_out}")

    if failures:
        print("channel establishment failed:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 2

    n_flows = sum(len(ch.flows) for ch in mic.channels.values())
    print(
        f"fabric: fat_tree(k={args.k}), {len(mic.channels)} channels, "
        f"{n_flows} m-flows (seed {args.seed})"
    )
    report = verify_network(net, mic=mic)

    if not args.no_code_taint:
        taint_violations = _code_taint_violations(args.code_paths)
        report.extend(taint_violations)
        print(
            f"code taint pass: {len(taint_violations)} finding(s) over "
            f"{', '.join(args.code_paths)}"
        )

    print(report.format())
    if report.errors:
        return 1
    if report.warnings and args.strict:
        return 1
    return 0


def _cmd_docs_check(args: argparse.Namespace) -> int:
    from .docs_check import check_docs

    docs_dir = Path(args.docs_dir)
    if not docs_dir.is_dir():
        print(f"docs directory not found: {docs_dir}", file=sys.stderr)
        return 2
    issues = check_docs(docs_dir)
    n_files = len(list(docs_dir.glob("*.md")))
    if issues:
        for issue in issues:
            print(issue.format(), file=sys.stderr)
        print(f"docs-check: {len(issues)} broken reference(s) across "
              f"{n_files} page(s)", file=sys.stderr)
        return 1
    print(f"docs-check: {n_files} page(s), all code paths import, "
          "all internal links and anchors resolve")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static data-plane verification and the pluggable lint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify-network",
        help="establish a batch of mimic channels and verify the tables",
    )
    verify.add_argument("--k", type=int, default=4, help="fat-tree arity")
    verify.add_argument(
        "--flows", type=int, default=32,
        help="total concurrent m-flows to establish (default 32)",
    )
    verify.add_argument(
        "--flows-per-channel", type=int, default=2,
        help="m-flows per channel (default 2)",
    )
    verify.add_argument("--n-mns", type=int, default=3,
                        help="mimic nodes per walk (default 3)")
    verify.add_argument("--decoys", type=int, default=1,
                        help="decoy replicas per flow (default 1)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    verify.add_argument(
        "--metrics-out", metavar="PATH",
        help="attach an observer and write its JSON metrics snapshot here",
    )
    verify.add_argument(
        "--code-paths", nargs="*", default=["src"], metavar="PATH",
        help="source paths for the code-level taint pass (default: src)",
    )
    verify.add_argument(
        "--no-code-taint", action="store_true",
        help="skip the code-level endpoint-leak pass",
    )
    verify.set_defaults(func=_cmd_verify_network)

    # `lint` owns its own argparse (format/explain/select/...); pass the
    # remaining argv through untouched.
    lint = sub.add_parser(
        "lint", add_help=False,
        help="run the pluggable rule engine (see `lint --help`)",
    )
    lint.set_defaults(func=None)

    docs = sub.add_parser(
        "docs-check",
        help="check docs/*.md: repro.* code paths import, internal links "
             "and #anchors resolve",
    )
    docs.add_argument(
        "--docs-dir", default="docs", metavar="DIR",
        help="directory of markdown pages to check (default: docs)",
    )
    docs.set_defaults(func=_cmd_docs_check)

    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        return lint_mod.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
