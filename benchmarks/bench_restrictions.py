"""Plausibility microbenchmark: the vectorised pair index vs the all-pairs scan.

For every one of the 768 directed links of ``fat_tree(8)`` (128 hosts,
16,256 ordered host pairs) the Mimic Controller needs the host pairs whose
shortest paths use that link.  Measured two ways:

* ``scan``   — what ``TopologyView.plausible_host_pairs`` did before the
  index: :meth:`TopologyView.link_on_shortest_path` once per host pair;
* ``index``  — :meth:`TopologyView.plausible_pair_index`, one broadcast
  compare over the host-distance matrix, plus turning the flat indices back
  into name tuples (:meth:`TopologyView.plausible_host_pairs`).

The acceptance bar is a >=10x speedup with identical output on every link.
Run directly (``python benchmarks/bench_restrictions.py``) or through
pytest; both write ``benchmarks/results/restrictions_microbench.json``.
"""

import json
import pathlib
import time

from repro.net import fat_tree
from repro.sdn import TopologyView

RESULTS = pathlib.Path(__file__).parent / "results"


def scan_pairs(view: TopologyView, u: str, v: str) -> list[tuple[str, str]]:
    """The replaced implementation: the single-pair predicate, all pairs."""
    hosts = view.topo.hosts()
    return [
        (a, b)
        for a in hosts
        for b in hosts
        if a != b and view.link_on_shortest_path(a, b, u, v)
    ]


def run(k: int = 8) -> dict:
    """Time both paths over every directed link of ``fat_tree(k)``."""
    view = TopologyView(fat_tree(k))
    links = [d for u, v in view.topo.graph.edges for d in ((u, v), (v, u))]

    scan_s = index_s = index_only_s = 0.0
    pairs = index_bytes = 0
    for u, v in links:
        t0 = time.perf_counter()
        scanned = scan_pairs(view, u, v)
        t1 = time.perf_counter()
        indexed = view.plausible_host_pairs(u, v)
        t2 = time.perf_counter()
        array = view.plausible_pair_index(u, v)
        t3 = time.perf_counter()
        assert indexed == scanned, f"index and scan disagree on {u}->{v}"
        scan_s += t1 - t0
        index_s += t2 - t1
        index_only_s += t3 - t2
        pairs += len(scanned)
        index_bytes += array.nbytes
    return {
        "k": k,
        "hosts": len(view.hosts),
        "directed_links": len(links),
        "plausible_pairs_total": pairs,
        "scan_s_per_link": scan_s / len(links),
        "index_s_per_link": index_s / len(links),
        "index_only_s_per_link": index_only_s / len(links),
        "index_bytes_per_link": index_bytes / len(links),
        "speedup_with_name_tuples": scan_s / index_s,
        "speedup_index_only": scan_s / index_only_s,
    }


def _save(result: dict) -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "restrictions_microbench.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    return out


def test_pair_index_at_least_10x_on_fat_tree8():
    result = run(k=8)
    _save(result)
    print(
        f"\nplausible pairs, fat_tree(8), {result['directed_links']} links:"
        f" scan {result['scan_s_per_link'] * 1e3:.2f}ms/link"
        f"  index+names {result['index_s_per_link'] * 1e6:.0f}us"
        f" ({result['speedup_with_name_tuples']:.0f}x)"
        f"  index only {result['index_only_s_per_link'] * 1e6:.0f}us"
        f" ({result['speedup_index_only']:.0f}x),"
        f" {result['index_bytes_per_link']:.0f} B/link"
    )
    assert result["directed_links"] == 768
    assert result["speedup_with_name_tuples"] >= 10.0
    assert result["speedup_index_only"] >= 10.0


if __name__ == "__main__":
    res = run()
    path = _save(res)
    print(json.dumps(res, indent=2))
    print(f"saved -> {path}")
