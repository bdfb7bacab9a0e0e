"""Pre-wire microbenchmark: the bundled all-pairs wiring against the per-rule oracle.

Proactive L3 wiring (``L3ShortestPathApp.wire_all_pairs``, what
``deploy_mic(pre_wire=True)`` and ``Testbed.create`` run) routes every
unordered host pair of a fabric, so its rule count is quadratic in hosts:
1,072 rules on ``fat_tree(4)``, 76,672 on ``fat_tree(8)``.  Each size is
wired two ways on fresh networks at the same seed:

* ``oracle``   — the rule-by-rule pre-wire kept in
  ``tests/sdn/prewire_oracle.py``: every pair planned on its own, its hop
  rules built from ``ports_along`` and sent one flow-mod each;
* ``prewire``  — :meth:`L3ShortestPathApp.wire_all_pairs`: one planner and
  rule builder pass over every pair, one bundle per switch.

A deploy is the network, controller and app construction plus the wiring,
run until every install has landed.  Both sides must leave equal tables
(entry ids, install order, matches, actions, cookies) and equal app state
(paths, cookies, wired pairs).  ``fat_tree(8)`` is the one size whose
inter-pod pairs have exactly 16 equal-cost paths, the routing view's cap.
There is no timing bar: the seconds are written to
``benchmarks/results/prewire_microbench.json`` and printed.

Run directly (``python benchmarks/bench_prewire.py``) or through pytest;
``BENCH_QUICK=1`` times each side once instead of three times.
"""

import gc
import json
import os
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests" / "sdn"))

from prewire_oracle import table_rows, wire_all_pairs_per_rule  # noqa: E402

from repro.net import Network, fat_tree  # noqa: E402
from repro.sdn import Controller, L3ShortestPathApp, TopologyView  # noqa: E402

RESULTS = pathlib.Path(__file__).parent / "results"
QUICK = bool(os.environ.get("BENCH_QUICK"))

SIZES = (4, 6, 8)
REPEATS = 1 if QUICK else 3
SEED = 0
SIDES = {
    "oracle": wire_all_pairs_per_rule,
    "prewire": L3ShortestPathApp.wire_all_pairs,
}


def deploy(k: int, side: str) -> tuple[float, dict, tuple]:
    """A pre-wired ``fat_tree(k)`` wired by ``side``: ``(seconds, table
    rows, app state)``.  Everything older is frozen out of the collector
    while it runs, so neither side's passes walk the other side's fabric."""
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        net = Network(fat_tree(k), seed=SEED)
        l3 = Controller(net).register(L3ShortestPathApp())
        net.run(until=net.sim.all_of(SIDES[side](l3)))
        took = time.perf_counter() - t0
        state = l3.pair_paths, l3._pair_cookies, l3._installed_pairs, l3._next_cookie
        return took, table_rows(net), state
    finally:
        gc.unfreeze()


def measure(k: int, repeats: int = REPEATS) -> dict:
    """Median deploy seconds of both sides on ``fat_tree(k)``; the last
    repetition's two fabrics are compared rule for rule."""
    seconds: dict[str, list[float]] = {side: [] for side in SIDES}
    for _ in range(repeats):
        built = {}
        for side in SIDES:
            took, rows, state = deploy(k, side)
            seconds[side].append(took)
            built[side] = rows, state
    assert built["prewire"] == built["oracle"]
    view = TopologyView(fat_tree(k))
    first, *others = view.hosts
    oracle_s, prewire_s = (statistics.median(seconds[side]) for side in SIDES)
    return {
        "k": k,
        "hosts": len(view.hosts),
        "rules": sum(len(rows) for rows in built["prewire"][0].values()),
        "max_equal_cost_paths": max(len(view.equal_cost_paths(first, h)) for h in others),
        "repeats": repeats,
        "oracle_s": oracle_s,
        "prewire_s": prewire_s,
        "speedup": oracle_s / prewire_s,
    }


def run() -> dict:
    return {"seed": SEED, "sizes": [measure(k) for k in SIZES]}


def _save(result: dict) -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "prewire_microbench.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    return out


def test_bundled_prewire_equals_the_per_rule_oracle_at_scale():
    result = run()
    _save(result)
    print()
    for row in result["sizes"]:
        print(
            f"pre-wire, fat_tree({row['k']}), {row['hosts']} hosts /"
            f" {row['rules']} rules (up to {row['max_equal_cost_paths']}"
            f" equal-cost paths): oracle {row['oracle_s'] * 1e3:.0f}ms"
            f"  prewire {row['prewire_s'] * 1e3:.0f}ms"
            f" ({row['speedup']:.2f}x, median of {row['repeats']})"
        )
    assert [row["k"] for row in result["sizes"]] == list(SIZES)
    assert result["sizes"][-1]["max_equal_cost_paths"] == 16


if __name__ == "__main__":
    test_bundled_prewire_equals_the_per_rule_oracle_at_scale()
