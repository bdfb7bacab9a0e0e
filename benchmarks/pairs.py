"""Alternating parent / change pairs of one benchmark workload.

    python3 benchmarks/pairs.py --base ../parent --workload packet_bulk --seed 3 --pairs 10

ROADMAP asks every speed claim for >= 9/10 alternating pairs on an unseen
seed.  Each pair runs one repetition of each checkout's *own*
``benchmarks/perf/worker.py`` (fresh interpreter, ``PYTHONHASHSEED=0``), the
side that goes first alternating, and corrects host times by the drift the
worker measured around that repetition, as ``benchmarks/perf/run.py`` does.
After the per-metric lines it prints, per metric, whether the claim rule
holds (:func:`verdict`).  It warns when the two checkouts' paths differ in
length: ``peak_rss_mb`` moves with the path.  Exits non-zero if any
``sim_digest`` differs or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HEAD = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
CALIB_REF_S = 0.090  # benchmarks/perf/run.py's reference-kernel time
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_side(root: str, workload: str, seed: int, rep: int) -> dict:
    """One repetition of ``root``'s worker; its document, host times corrected."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "perf", "worker.py"),
         "--workload", workload, "--seed", str(seed), "--rep", str(rep)],
        env=dict(os.environ, PYTHONHASHSEED="0"), cwd=root,
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    drift = CALIB_REF_S / statistics.median(doc["calib_s"])
    doc["wall_s"] *= drift
    doc["setup_s"] *= drift
    return doc


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 of ``xs`` (``statistics.quantiles``' default method)."""
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q1, med, q3


def verdict(base: list[float], head: list[float]) -> dict:
    """The ROADMAP claim rule for one lower-is-better metric over paired runs.

    The claim holds when head beat base in at least 9 of every 10 pairs and
    the gap between the medians (base - head) exceeds the base runs' IQR.
    """
    wins = sum(h < b for b, h in zip(base, head))
    q1, base_median, q3 = quartiles(base)
    gap = base_median - quartiles(head)[1]
    iqr = q3 - q1
    return {
        "wins": wins,
        "pairs": len(base),
        "gap": gap,
        "base_iqr": iqr,
        "holds": 10 * wins >= 9 * len(base) and gap > iqr,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sides = {"base": os.path.abspath(args.base), "head": HEAD}
    if len(sides["base"]) != len(sides["head"]):
        print(f"warning: checkout paths differ in length ({sides['base']} vs "
              f"{sides['head']}); peak_rss_mb moves with the path", file=sys.stderr)
    docs: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(args.pairs):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            docs[side].append(run_side(sides[side], args.workload, args.seed, i))
        base, head = docs["base"][-1], docs["head"][-1]
        print(f"pair {i:2d} ({'base' if i % 2 == 0 else 'head'} first): " + "  ".join(
            f"{m} {base[m]:.4g} -> {head[m]:.4g}" for m in METRICS), flush=True)
    for m in METRICS:
        line = f"{m:12s}"
        for side in ("base", "head"):
            q1, med, q3 = quartiles([d[m] for d in docs[side]])
            line += f"  {side} median {med:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]"
        wins = sum(h[m] < b[m] for b, h in zip(docs["base"], docs["head"]))
        losses = sum(h[m] > b[m] for b, h in zip(docs["base"], docs["head"]))
        print(f"{line}  head wins {wins}, loses {losses} of {args.pairs}")
    for m in METRICS:
        v = verdict([d[m] for d in docs["base"]], [d[m] for d in docs["head"]])
        print(f"claim {m:12s} median gap {v['gap']:.4g} vs base IQR {v['base_iqr']:.4g}, "
              f"head won {v['wins']}/{v['pairs']}: "
              f"{'holds' if v['holds'] else 'does not hold'}")
    every = docs["base"] + docs["head"]
    digests = sorted({d["sim_digest"] for d in every})
    failed = sum(d["failed"] for d in every)
    print(f"sim_digest: {' != '.join(x[:12] for x in digests)}; failed operations: {failed}")
    return 0 if len(digests) == 1 and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
