"""Fluid-solver microbenchmark: incremental water filling vs the full scan.

One max-min solve of 4,000 and of 10,000 concurrent flows on ``fat_tree(16)``
hash-ECMP paths (6,144 directed links, ~6 links per flow — the traffic of the
hybrid scale benchmarks), measured two ways:

* ``full scan``   — the loop ``FluidSolver`` ran before: every filling round
  re-gathers the whole flow×link incidence to freeze a handful of flows.  It
  is kept verbatim as the test oracle (``tests/net/fluid_oracle.py``) and
  timed from there;
* ``incremental`` — :meth:`FluidSolver.rates` on a freshly filled solver, so
  the timed solve also builds the incidence arrays (what the first epoch of
  a run pays), and once more on the kept incidence after a capacity change.

Both perform the same float operations in the same order: the rates must be
equal bit for bit and the number of filling rounds the same, which is checked
on every timed solve.  The acceptance bar is >=2.5x on both sizes.  Run
directly (``python benchmarks/bench_fluid_solver.py``) or through pytest; both
write ``benchmarks/results/fluid_solver_microbench.json``.
"""

import json
import os
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests" / "net"))

from fluid_oracle import ecmp_instance, full_scan_solve  # noqa: E402

from repro.net import FluidSolver  # noqa: E402

RESULTS = pathlib.Path(__file__).parent / "results"
QUICK = bool(os.environ.get("BENCH_QUICK"))

K = 16
SIZES = (4_000, 10_000)
REPEATS = 3 if QUICK else 7


def _filled(caps, flows) -> FluidSolver:
    solver = FluidSolver(caps)
    for flow in flows.values():
        solver.add_flow(flow.flow_id, flow.links)
    return solver


def measure(n_flows: int, repeats: int = REPEATS) -> dict:
    """Median seconds per solve of ``n_flows`` flows, both loops."""
    caps, flows = ecmp_instance(K, n_flows, seed=n_flows)
    debit_link = next(iter(caps))
    scan_s, first_s, kept_s = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        want, rounds = full_scan_solve(flows, caps, {})
        scan_s.append(time.perf_counter() - t0)

        solver = _filled(caps, flows)
        t0 = time.perf_counter()
        got = solver.rates()
        first_s.append(time.perf_counter() - t0)
        assert got == want, "incremental and full-scan rates differ"
        assert solver.rounds == rounds, (solver.rounds, rounds)

        solver.set_external_load(debit_link, 1e8)
        t0 = time.perf_counter()
        solver.rates()
        kept_s.append(time.perf_counter() - t0)
    scan, first, kept = map(statistics.median, (scan_s, first_s, kept_s))
    return {
        "flows": n_flows,
        "links": len(caps),
        "incidence_entries": sum(len(f.links) for f in flows.values()),
        "rounds": rounds,
        "repeats": repeats,
        "full_scan_s": scan,
        "incremental_s": first,
        "incremental_kept_incidence_s": kept,
        "speedup": scan / first,
        "us_per_round_full_scan": scan / rounds * 1e6,
        "us_per_round_incremental": first / rounds * 1e6,
    }


def run() -> dict:
    """Both sizes on ``fat_tree(16)``."""
    return {"k": K, "solves": [measure(n) for n in SIZES]}


def _save(result: dict) -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "fluid_solver_microbench.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    return out


def test_incremental_fill_at_least_2_5x_the_full_scan():
    result = run()
    _save(result)
    print()
    for row in result["solves"]:
        print(
            f"fluid solve, fat_tree({K}), {row['flows']} flows / "
            f"{row['incidence_entries']} entries, {row['rounds']} rounds:"
            f" full scan {row['full_scan_s'] * 1e3:.1f}ms"
            f" ({row['us_per_round_full_scan']:.0f}us/round)"
            f"  incremental {row['incremental_s'] * 1e3:.1f}ms"
            f" ({row['us_per_round_incremental']:.0f}us/round, {row['speedup']:.1f}x;"
            f" {row['incremental_kept_incidence_s'] * 1e3:.1f}ms on kept incidence)"
        )
    for row in result["solves"]:
        assert row["speedup"] >= 2.5, row


if __name__ == "__main__":
    res = run()
    path = _save(res)
    print(json.dumps(res, indent=2))
    print(f"saved -> {path}")
