"""Static-verifier benchmark: indexed, memoised ``mic.verify()`` vs the scans.

One ``mic.verify()`` — table-local checks, match-key uniqueness, the
rewrite-aware loop traversal from every rule and the per-m-flow intent
replays — of a pre-wired fabric carrying four MIC channels (one with
``n_flows=2``, one with ``decoys=1``), measured two ways on ``fat_tree(4)``:

* ``scan``    — the verifier as it was: ``could_match`` against every rule
  for every header, ``_check_pair`` on every ordered entry pair, a loop DFS
  that shares nothing between origins.  Kept as the test oracle
  (``tests/analysis/verifier_oracle.py``) and timed from there;
* ``indexed`` — :func:`repro.analysis.verify_network` as shipped: one
  ``CandidateIndex`` probe per wildcard pattern, a hash join for the
  intersecting pairs, one clean-state memo across all origins.

The two reports must be equal — same violations in the same order with the
same text, same ``checked_*`` counts — which is checked on every timed run;
the acceptance bar is >=3x.  Outside ``BENCH_QUICK`` the indexed verifier
also proves the paper's own pre-wired ``fat_tree(8)`` (``mn_shift=1``; 76.7k
rules) clean, which the scans need minutes for: 150 s when the parent commit
was measured for the change, a one-off that is quoted, not re-run.  Run directly
(``python benchmarks/bench_verifier.py``) or through pytest; both write
``benchmarks/results/verifier_microbench.json``.
"""

import json
import os
import pathlib
import statistics
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parents[1] / "tests" / "analysis")
)

import verifier_oracle  # noqa: E402

from repro.core import deploy_mic  # noqa: E402
from repro.net import fat_tree  # noqa: E402

RESULTS = pathlib.Path(__file__).parent / "results"
QUICK = bool(os.environ.get("BENCH_QUICK"))

REPEATS = 3 if QUICK else 7
CHANNELS = (dict(n_flows=2), dict(decoys=1), dict(), dict(n_mns=2))
#: one ``mic.verify()`` of the fat_tree(8) deployment below at the parent
#: commit (all-pairs / linear-scan verifier), measured once
PARENT_FAT_TREE8_VERIFY_S = 150.0


def deployment(k: int):
    """Pre-wired ``fat_tree(k)`` with four cross-pod MIC channels up."""
    dep = deploy_mic(
        fat_tree(k), seed=0, pre_wire=True,
        mic_kwargs=dict(mn_shift=1) if k > 4 else None,
    )
    hosts = sorted(dep.net.topo.hosts(), key=lambda h: int(h[1:]))
    for i, kw in enumerate(CHANNELS):
        dep.sim.process(dep.mic.establish(
            hosts[i], hosts[-1 - 3 * i], service_port=80, **kw
        ))
    dep.run()
    assert len(dep.mic.channels) == len(CHANNELS)
    return dep


def _scope(report) -> dict:
    return {
        "rules": report.checked_rules,
        "groups": report.checked_groups,
        "mflows": report.checked_flows,
        "switches": report.checked_switches,
        "violations": len(report.violations),
    }


def measure_fat_tree4(repeats: int = REPEATS) -> dict:
    """Median seconds per ``verify()``, scans and index, reports compared."""
    dep = deployment(4)
    scan_s, indexed_s = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        want, truncated = verifier_oracle.verify_network(dep.net, mic=dep.mic)
        scan_s.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        got = dep.mic.verify()
        indexed_s.append(time.perf_counter() - t0)
        assert not truncated
        assert got.violations == want.violations, "reports differ"
        assert _scope(got) == _scope(want), (_scope(got), _scope(want))
    scan, indexed = statistics.median(scan_s), statistics.median(indexed_s)
    return {
        "fabric": "fat_tree(4), pre-wired, 4 MIC channels",
        **_scope(got),
        "repeats": repeats,
        "scan_s": scan,
        "indexed_s": indexed,
        "speedup": scan / indexed,
    }


def measure_fat_tree8() -> dict:
    """One indexed ``verify()`` of the paper-scale pre-wired fabric."""
    dep = deployment(8)
    t0 = time.perf_counter()
    report = dep.mic.verify()
    indexed = time.perf_counter() - t0
    return {
        "fabric": "fat_tree(8), pre-wired, mn_shift=1, 4 MIC channels",
        **_scope(report),
        "indexed_s": indexed,
        "parent_scan_s_one_off": PARENT_FAT_TREE8_VERIFY_S,
    }


def run() -> dict:
    """``fat_tree(4)`` both ways; ``fat_tree(8)`` indexed unless quick."""
    result = {"fat_tree4": measure_fat_tree4()}
    if not QUICK:
        result["fat_tree8"] = measure_fat_tree8()
    return result


def _save(result: dict) -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "verifier_microbench.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    return out


def test_indexed_verify_at_least_3x_the_scans():
    result = run()
    _save(result)
    small = result["fat_tree4"]
    print(
        f"\nmic.verify(), {small['fabric']} ({small['rules']} rules, "
        f"{small['mflows']} m-flows): scans {small['scan_s'] * 1e3:.0f}ms"
        f"  indexed {small['indexed_s'] * 1e3:.0f}ms ({small['speedup']:.1f}x)"
    )
    assert small["violations"] == 0
    assert small["speedup"] >= 3.0, small
    if "fat_tree8" in result:
        big = result["fat_tree8"]
        print(
            f"mic.verify(), {big['fabric']} ({big['rules']} rules): indexed "
            f"{big['indexed_s']:.1f}s (scans at the parent commit: "
            f"{big['parent_scan_s_one_off']:.0f}s, one-off)"
        )
        assert big["violations"] == 0 and big["rules"] > 76_000
        assert big["indexed_s"] * 10 <= big["parent_scan_s_one_off"], big


if __name__ == "__main__":
    res = run()
    path = _save(res)
    print(json.dumps(res, indent=2))
    print(f"saved -> {path}")
