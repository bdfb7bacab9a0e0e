#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name with its unit.

    python3 benchmarks/perf/run.py                      # all four workloads
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Every repetition runs in a fresh single-threaded ``worker.py`` interpreter
with ``PYTHONHASHSEED=0``, one at a time.  With ``--workload`` the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.  Without it every workload is measured
in rep-major order (so each workload's samples span the whole invocation),
then traced, then traced again under ``PYTHONHASHSEED=1``; the command
exits non-zero if an operation failed or if ``sim_digest`` or
``host.py_calls`` did not repeat exactly.

README.md explains the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
WORKER_TIMEOUT_S = 120

#: what the reference kernel (``worker.calib_kernel``) took on the machine
#: the first baseline was measured on; host times are reported as if it
#: still took this long
CALIB_REF_S = 0.090
#: about how long one repetition's process lives at that speed, start-up
#: and reference kernel included.  ``--seconds`` becomes a fixed repetition
#: count through it, so every run of a workload does the same work.
NOMINAL_REP_S = {
    "packet_bulk": 4.0,
    "setup_churn": 4.5,
    "hybrid_fluid": 5.0,
    "chaos_observed": 3.0,
}
MIN_REPS = 3

#: names the harness must not build on: ROADMAP plans to fold them
_FORBIDDEN = re.compile(
    r"repro\.bench|run_chaos|default_schedule|run_tournament|\b_[a-z]\w*")


def import_selfcheck() -> list[str]:
    """Harness import lines that reach past the exported layer APIs."""
    bad = []
    for name in sorted(os.listdir(HERE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(HERE, name), encoding="utf-8") as fh:
            for line in fh:
                if re.match(r"\s*(from|import)\s+repro\b", line) \
                        and _FORBIDDEN.search(line):
                    bad.append(f"{name}: {line.strip()}")
    return bad


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric and workload names this command prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, rep: int, trace: int, scale: int,
               hashseed: int = 0) -> dict:
    """One repetition in a fresh interpreter; returns the worker's document."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--rep", str(rep), "--trace", str(trace),
         "--scale", str(scale)],
        env=dict(os.environ, PYTHONHASHSEED=str(hashseed)), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def rep_count(workload: str, seconds: float, smoke: bool) -> int:
    """How many repetitions fill ``seconds`` at the reference speed."""
    if smoke:
        return 1
    return max(MIN_REPS, round(seconds / NOMINAL_REP_S[workload]))


def end_to_end(docs: list[dict]) -> dict:
    """Medians over the repetitions, host times with the machine's drift taken out.

    Each repetition is corrected by the reference-kernel passes timed right
    before and after it in its own process: on this box that halves the
    spread a single run-wide correction leaves.
    """
    drift = [CALIB_REF_S / statistics.median(d["calib_s"]) for d in docs]
    return {
        "wall_s": statistics.median(d["wall_s"] * k for d, k in zip(docs, drift)),
        "setup_s": statistics.median(d["setup_s"] * k for d, k in zip(docs, drift)),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    """The traced repetition's layer values plus what needs the untraced one."""
    values = dict(traced["layers"])
    plain_wall = plain["wall_s"] + plain["setup_s"]
    values["sim.events_per_wall_s"] = values["sim.events"] / plain_wall
    values["host.calib_s"] = statistics.median(plain["calib_s"] + traced["calib_s"])
    values["host.wall_raw_s"] = plain_wall
    values["host.trace_overhead"] = (traced["wall_s"] + traced["setup_s"]) / plain_wall
    return values


def summarise(docs: list[dict], values: dict) -> dict:
    """One result: the values, the operations and whether the reps agree."""
    digests = sorted({d["sim_digest"] for d in docs})
    return {
        "workload": docs[0]["workload"], "seed": docs[0]["seed"], "values": values,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "notes": [note for d in docs for note in d["notes"]],
        "info": docs[0]["info"],
        "digests": digests,
        "calib_s": [c for d in docs for c in d["calib_s"]],
        "wall_raw_s": [d["wall_s"] for d in docs],
    }


def report(result: dict, listed: list[dict], smoke: bool) -> dict:
    """Print every listed metric by name with its unit; return them as JSON-able."""
    stamp = "  [smoke: sizes / 10, NOT comparable]" if smoke else ""
    print(f"# {result['workload']} seed={result['seed']}{stamp}")
    metrics = {}
    for m in listed:
        value = result["values"][m["name"]]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{m['name']} = {shown} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"operations: attempted={result['attempted']} failed={result['failed']}")
    if len(result["digests"]) == 1:
        print(f"sim_digest: {result['digests'][0]}")
    else:
        print(f"sim_digest: DIFFERS across repetitions: {result['digests']}")
    print(f"host.calib_s per pass: {' '.join(f'{c:.3f}' for c in result['calib_s'])}")
    print(f"host.wall_raw_s per rep: {' '.join(f'{w:.3f}' for w in result['wall_raw_s'])}")
    for line in result["info"]:
        print("note: " + line)
    for note in result["notes"]:
        print("FAILURE " + note)
    if "attributed_s" in result["values"]:
        share = result["values"]["attributed_s"] / result["values"]["traced_wall_s"]
        print(f"layers account for {share:.1%} of the traced wall")
    return metrics


def is_correct(result: dict) -> bool:
    """Outputs checked, nothing failed, and the repetitions simulated the same thing."""
    return result["failed"] == 0 and len(result["digests"]) == 1


def measure_traced(workload: str, seed: int, scale: int, hashseed: int = 0) -> tuple:
    """An untraced and a traced repetition: ``(result, documents)``."""
    plain = run_worker(workload, seed, 0, 0, scale, hashseed)
    traced = run_worker(workload, seed, 1, 1, scale, hashseed)
    values = per_layer(plain, traced)
    values["traced_wall_s"] = traced["wall_s"] + traced["setup_s"]
    return summarise([plain, traced], values), [plain, traced]


def run_one(args, spec: dict) -> int:
    """The driver's form: one workload, one JSON line last."""
    scale = 10 if args.smoke else 1
    if args.trace:
        result, docs = measure_traced(args.workload, args.seed, scale)
        listed = spec["per_layer"]
    else:
        n = rep_count(args.workload, args.seconds, args.smoke)
        docs = [run_worker(args.workload, args.seed, rep, 0, scale) for rep in range(n)]
        result = summarise(docs, end_to_end(docs))
        listed = spec["end_to_end"]
    metrics = report(result, listed, args.smoke)
    if args.out:
        write_out(args.out, docs)
    print(json.dumps({
        "correct": is_correct(result), "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, repetitions interleaved rep-major, then the traces."""
    scale = 10 if args.smoke else 1
    names = [w["name"] for w in spec["workloads"]]
    counts = {name: rep_count(name, args.seconds, args.smoke) for name in names}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(max(counts.values())):
        for name in names:
            if rep < counts[name]:
                runs[name].append(run_worker(name, args.seed, rep, 0, scale))
    problems = []
    docs: list[dict] = []
    for name in names:
        untraced = summarise(runs[name], end_to_end(runs[name]))
        traced, traced_docs = measure_traced(name, args.seed, scale)
        other, other_docs = measure_traced(name, args.seed, scale, hashseed=1)
        docs += runs[name] + traced_docs + other_docs
        report(untraced, spec["end_to_end"], args.smoke)
        report(traced, spec["per_layer"], args.smoke)
        print()
        digests = {d for r in (untraced, traced, other) for d in r["digests"]}
        if len(digests) != 1:
            problems.append(f"{name}: sim_digest differs across runs or under "
                            f"PYTHONHASHSEED 0 vs 1: {sorted(digests)}")
        calls = {r["values"]["host.py_calls"] for r in (traced, other)}
        if len(calls) != 1:
            problems.append(f"{name}: host.py_calls differs under PYTHONHASHSEED "
                            f"0 vs 1: {sorted(calls)}")
        failed = untraced["failed"] + traced["failed"] + other["failed"]
        if failed:
            problems.append(f"{name}: {failed} operation(s) failed")
    if args.out:
        write_out(args.out, docs)
    for problem in problems:
        print("PROBLEM " + problem)
    return 1 if problems else 0


def write_out(out_dir: str, docs: list[dict]) -> None:
    """``results.json`` (every worker document) and ``spans.json`` (their spans)."""
    os.makedirs(out_dir, exist_ok=True)
    spans = [span for doc in docs for span in doc.pop("spans")]
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=1)
    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(spans, fh, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="measure only this workload and end "
                        "with the JSON line (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long one run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for results.json and spans.json")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 10, one rep; numbers are not comparable")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    bad = import_selfcheck()
    if bad:
        print("harness imports reach past the exported layer APIs:\n  "
              + "\n  ".join(bad), file=sys.stderr)
        return 2
    if args.workload:
        if args.workload not in NOMINAL_REP_S:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
