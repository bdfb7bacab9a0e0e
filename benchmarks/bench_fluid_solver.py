"""Fluid-solver microbenchmark: parallel water filling vs the full scan.

One max-min solve of 4,000 and of 10,000 concurrent flows on ``fat_tree(16)``
hash-ECMP paths (6,144 directed links, ~6 links per flow — the traffic of the
hybrid scale benchmarks), measured two ways:

* ``full scan``   — the one-level-per-round loop ``FluidSolver`` once ran:
  every round raises the water by one bottleneck level and re-gathers the
  whole flow×link incidence to freeze a handful of flows.  It is kept
  verbatim as a test oracle (``tests/net/fluid_oracle.py``) and timed from
  there;
* ``incremental`` — :meth:`FluidSolver.rates` on a freshly filled solver, so
  the timed solve also builds the incidence arrays (what the first epoch of
  a run pays), and once more on the kept incidence after a capacity change.
  Its rounds freeze every local bottleneck at once.

The two loops do not perform the same float operations: every timed solve
checks the incremental rates against the full scan's to a relative 1e-12
and against the max-min certificate (``fluid_oracle.assert_max_min_fair``),
and prints both loops' rounds next to their milliseconds.  The acceptance
bar is >=2.5x on both sizes.

The second measurement is the hybrid engine's epoch around the solve: 4,000
1 MB transfers on ``fat_tree(16)``, all started at once and run to
quiescence, once through :class:`repro.net.HybridEngine` (one vector pass per
phase over rows aligned with the solver) and once through the dict-based
epoch it replaced (``tests/net/hybrid_oracle.py``).  It times the measure,
solve, publish and advance phases of both and asserts that the two leave
equal rates, published loads, per-flow progress, finish instants and
counters after every epoch.  The bar is >=2x on the phases around the solve.

Run directly (``python benchmarks/bench_fluid_solver.py``) or through
pytest; both write ``benchmarks/results/fluid_solver_microbench.json``.
"""

import json
import os
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests" / "net"))

from fluid_oracle import (  # noqa: E402
    assert_max_min_fair,
    ecmp_instance,
    full_scan_solve,
)
from hybrid_oracle import OracleEngine  # noqa: E402

from repro.bench import fat_tree_path  # noqa: E402
from repro.net import FluidSolver, HybridEngine, Network, fat_tree  # noqa: E402

RESULTS = pathlib.Path(__file__).parent / "results"
QUICK = bool(os.environ.get("BENCH_QUICK"))

K = 16
SIZES = (4_000, 10_000)
REPEATS = 3 if QUICK else 7
EPOCH_FLOWS = 4_000
EPOCH_REPEATS = 1 if QUICK else 3
PHASES = ("measure", "solve", "publish", "advance")


def _filled(caps, flows) -> FluidSolver:
    solver = FluidSolver(caps)
    for flow in flows.values():
        solver.add_flow(flow.flow_id, flow.links)
    return solver


def _max_rel_error(got: dict, want: dict) -> float:
    assert got.keys() == want.keys()
    return max(abs(got[k] - w) / abs(w) for k, w in want.items())


def measure(n_flows: int, repeats: int = REPEATS) -> dict:
    """Median seconds per solve of ``n_flows`` flows, both loops."""
    caps, flows = ecmp_instance(K, n_flows, seed=n_flows)
    debit_link = next(iter(caps))
    scan_s, first_s, kept_s = [], [], []
    rel_error = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        want, scan_rounds = full_scan_solve(flows, caps, {})
        scan_s.append(time.perf_counter() - t0)

        solver = _filled(caps, flows)
        t0 = time.perf_counter()
        got = solver.rates()
        first_s.append(time.perf_counter() - t0)
        rounds = solver.rounds
        rel_error = max(rel_error, _max_rel_error(got, want))
        assert rel_error <= 1e-12, rel_error
        assert_max_min_fair(solver)

        solver.set_external_load(debit_link, 1e8)
        t0 = time.perf_counter()
        solver.rates()
        kept_s.append(time.perf_counter() - t0)
        kept_rounds = solver.rounds - rounds
        assert_max_min_fair(solver)
    scan, first, kept = map(statistics.median, (scan_s, first_s, kept_s))
    return {
        "flows": n_flows,
        "links": len(caps),
        "incidence_entries": sum(len(f.links) for f in flows.values()),
        "rounds_full_scan": scan_rounds,
        "rounds": rounds,
        "rounds_kept_incidence": kept_rounds,
        "max_rel_error": rel_error,
        "repeats": repeats,
        "full_scan_s": scan,
        "incremental_s": first,
        "incremental_kept_incidence_s": kept,
        "speedup": scan / first,
    }


class _TimedEpochs:
    """One engine on a fresh fabric: phase timers and per-epoch snapshots."""

    def __init__(self, engine_cls):
        net = Network(fat_tree(K))
        self.eng = eng = engine_cls(net, epoch_s=0.010)
        self.channels = [ch for link in net.links for ch in (link.forward, link.reverse)]
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.snapshots: list = []
        for name in ("measure", "publish", "advance"):
            setattr(eng, f"_{name}_phase", self._timed(name, getattr(eng, f"_{name}_phase")))
        # no peers here: every solve is a rates() solve, inside the publish phase
        eng.solver._solve = self._timed("solve", eng.solver._solve)
        tick = eng._ticker.fn

        def recorded() -> None:
            tick()
            self.snapshots.append(self._snapshot())

        eng._ticker.fn = recorded
        hosts = net.topo.hosts()
        rng = random.Random(EPOCH_FLOWS)
        self.handles = []
        for i in range(EPOCH_FLOWS):
            src, dst = rng.sample(hosts, 2)
            fid = f"ch-{i}"
            self.handles.append(
                eng.start_flow(fat_tree_path(K, src, dst, fid), 1_000_000, flow_id=fid)
            )
        net.run()
        # the solve runs inside the publish phase
        self.seconds["publish"] -= self.seconds["solve"]

    def _timed(self, phase: str, fn):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds[phase] += time.perf_counter() - t0

        return timed

    def _snapshot(self):
        eng = self.eng
        return (
            dict(eng.solver._rates),
            [ch.fluid_load_bps for ch in self.channels],
            [(fc.advanced_bytes, fc.finished_s) for fc in self.handles],
            eng.bytes_advanced,
            eng.debited_bytes,
            eng.solver.rounds,
        )


def measure_epochs(repeats: int = EPOCH_REPEATS) -> dict:
    """Median seconds per epoch phase, array engine against the dict epoch."""
    timings: dict[str, list[dict]] = {"engine": [], "oracle": []}
    for _ in range(repeats):
        runs = {"engine": _TimedEpochs(HybridEngine), "oracle": _TimedEpochs(OracleEngine)}
        engine, oracle = runs["engine"], runs["oracle"]
        assert len(engine.snapshots) == len(oracle.snapshots)
        for epoch, (got, want) in enumerate(zip(engine.snapshots, oracle.snapshots)):
            assert got == want, f"engine and dict epoch differ after epoch {epoch + 1}"
        for side, timed in runs.items():
            timings[side].append(timed.seconds)
    row = {
        "flows": EPOCH_FLOWS,
        "epochs": len(engine.snapshots),
        "rounds": engine.eng.solver.rounds,
        "entries_swept": engine.eng.solver.entries_swept,
        "repeats": repeats,
    }
    for side, samples in timings.items():
        for phase in PHASES:
            row[f"{side}_{phase}_s"] = statistics.median(s[phase] for s in samples)
    around = ("measure", "publish", "advance")
    row["speedup_around_solve"] = sum(row[f"oracle_{p}_s"] for p in around) / sum(
        row[f"engine_{p}_s"] for p in around
    )
    return row


def run() -> dict:
    """Both sizes on ``fat_tree(16)``, then the epoch phases around the solve."""
    return {"k": K, "solves": [measure(n) for n in SIZES], "epochs": measure_epochs()}


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
            f"{row['incidence_entries']} entries:"
            f" full scan {row['full_scan_s'] * 1e3:.1f}ms"
            f" ({row['rounds_full_scan']} rounds)"
            f"  incremental {row['incremental_s'] * 1e3:.1f}ms"
            f" ({row['rounds']} rounds, {row['speedup']:.1f}x;"
            f" {row['incremental_kept_incidence_s'] * 1e3:.1f}ms"
            f" / {row['rounds_kept_incidence']} rounds on kept incidence;"
            f" max rel error {row['max_rel_error']:.1e})"
        )
    row = result["epochs"]
    print(
        f"hybrid epoch, fat_tree({K}), {row['flows']} flows, {row['epochs']} epochs,"
        f" {row['rounds']} rounds: "
        + "  ".join(
            f"{p} {row[f'oracle_{p}_s'] * 1e3:.1f} -> {row[f'engine_{p}_s'] * 1e3:.1f}ms"
            for p in PHASES
        )
        + f"  ({row['speedup_around_solve']:.1f}x around the solve)"
    )
    for row in result["solves"]:
        assert row["speedup"] >= 2.5, row
    assert result["epochs"]["speedup_around_solve"] >= 2.0, result["epochs"]


if __name__ == "__main__":
    res = run()
    path = _save(res)
    print(json.dumps(res, indent=2))
    print(f"saved -> {path}")
