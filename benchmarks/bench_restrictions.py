"""Plausibility microbenchmarks: the vectorised pair index vs the all-pairs
scan, the index-array draw vs the list-building draw, and the distance
matrix vs the per-node search.

For every one of the 768 directed links of ``fat_tree(8)`` (128 hosts,
16,256 ordered host pairs) the Mimic Controller needs the host pairs whose
shortest paths use that link.  Measured two ways:

* ``scan``   — what ``TopologyView.plausible_host_pairs`` did before the
  index: :meth:`TopologyView.link_on_shortest_path` once per host pair;
* ``index``  — :meth:`TopologyView.plausible_pair_index`, one broadcast
  compare over the host-distance matrix, plus turning the flat indices back
  into name tuples (:meth:`TopologyView.plausible_host_pairs`).

The acceptance bar is a >=10x speedup with identical output on every link.

Then, for every segment of a fixed seeded set of MIC walks (``n_mns=3``,
both directions, the pins and the endpoint ban ``Planner.plan`` applies), one
segment-address draw two ways:

* ``oracle_draw`` — what ``Strategy.draw_segment`` did before it drew on
  the array: up to three filtered copies of the pool's name tuples,
  ``rng.choice`` (kept as ``tests/core/plausibility_oracle.py``);
* ``draw``        — :meth:`Strategy.plausible_pool` narrowing the pool's
  geodesic mask (a row of it for a pinned source, a column for a pinned
  destination) plus :meth:`AddressRestrictions.draw_pair`.

The bar is >=5x with the same pick on every segment, timing the draw
alone: every segment's pool is built once before both timed passes, and
that build is its own row, ``pool_build``.  Two more rows carry no bar:
``cold_draw`` is the first draw pass on a fresh deployment (what a
controller start, or a link event, leaves to the first plan), and
``setups_k16`` is ``fat_tree(16)`` channel set-ups — 64 clients on distinct
edge switches, 2 closed-loop rounds of ``connect_datagram(n_mns=3,
decoys=1)`` and ``shutdown`` — timed, with their peak resident set, in a
fresh interpreter (``python benchmarks/bench_restrictions.py setups``).

Last, what both of those read — the routing view's all-pairs distances,
rebuilt at every controller start and on every link event — two ways on
``fat_tree(8)`` and, outside ``BENCH_QUICK``, ``fat_tree(16)``:

* ``oracle`` — what ``TopologyView._rebuild_distances`` did before it kept
  one matrix: an absorbing BFS per node into a dict of dicts, then a loop per
  node for the host-distance arrays (kept as ``tests/sdn/distance_oracle.py``);
* ``matrix`` — switch-core frontier gathers, then one gather + ``minimum``
  per host NIC slot.

The bar is >=4x at ``k = 8`` and >=2x at ``k = 16`` with equal distances and
bit-identical arrays.  Resident-set growth of one rebuild is read in a fresh
interpreter per side (``python benchmarks/bench_restrictions.py rss K SIDE``),
where no earlier allocation can be reused.

Run directly (``python benchmarks/bench_restrictions.py``) or through
pytest; both write ``benchmarks/results/restrictions_microbench.json``.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time
from unittest import mock

import numpy as np

from repro.core import deploy_mic
from repro.net import fat_tree
from repro.sdn import TopologyView

TESTS = pathlib.Path(__file__).resolve().parents[1] / "tests"
sys.path[:0] = [str(TESTS / "core"), str(TESTS / "sdn")]
from distance_oracle import oracle_rebuild  # noqa: E402
from plausibility_oracle import oracle_narrow  # noqa: E402

RESULTS = pathlib.Path(__file__).parent / "results"
QUICK = bool(os.environ.get("BENCH_QUICK"))
#: view-build runs: (k, timed rounds, speed-up asserted)
VIEW_BUILDS = [(8, 7, 4.0)] + ([] if QUICK else [(16, 2, 2.0)])


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


def mic_segments(dep, walks: int, seed: int) -> list[tuple]:
    """``(nodes, pin_src, pin_dst, endpoints)`` for every segment, both
    directions, of ``walks`` seeded ``n_mns=3`` walks — cut and pinned the
    way ``Planner.plan`` / ``draw_addresses`` cut and pin them."""
    rng = random.Random(seed)
    view, topo = dep.ctrl.view, dep.net.topo
    segments = []
    for _ in range(walks):
        a, b = rng.sample(topo.hosts(), 2)
        walk = view.paths_with_min_switches(a, b, 3, rng)
        mns = sorted(rng.sample(range(1, len(walk) - 1), 3))
        for nodes, cuts, src, dst in (
            (walk, mns, a, b),
            (walk[::-1], sorted(len(walk) - 1 - p for p in mns), b, a),
        ):
            bounds = [0] + cuts + [len(nodes) - 1]
            for seg in range(4):
                segments.append((
                    nodes[bounds[seg] : bounds[seg + 1] + 1],
                    topo.host_ip(src) if seg == 0 else None,
                    topo.host_ip(dst) if seg == 3 else None,
                    (a, b),
                ))
    return segments


def run_draw(k: int = 8, walks: int = 96, seed: int = 17, rounds: int = 15) -> dict:
    """Time one draw per segment both ways, ``rounds`` passes each.

    Every segment's pool is built once, outside both timed passes (and
    timed on its own, ``pool_build``): the oracle's name tuples, and the
    geodesic mask ``plausible_pool`` narrows, which the index pass reads
    from that build.  The bar times the draw alone.
    """
    dep = deploy_mic(fat_tree(k), seed=0, mic_kwargs={"mn_shift": 1})
    mic = dep.mic
    restrictions, strategy, view = mic.planner.restrictions, mic.strategy, mic.planner.restrictions.view
    segments = mic_segments(dep, walks, seed)

    def build_masks():
        return {
            (tuple(nodes), *ranks): restrictions.segment_mask(nodes, *ranks)
            for nodes, pin_src, pin_dst, _endpoints in segments
            for ranks in [(view.host_rank(mic.planner.ip_to_host.get(pin_src)),
                           view.host_rank(mic.planner.ip_to_host.get(pin_dst)))]
        }

    def build_tuples():
        return [restrictions.pairs_for_segment(s[0]) for s in segments]

    mask_s, tuple_s = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        masks = build_masks()
        t1 = time.perf_counter()
        pools = build_tuples()
        t2 = time.perf_counter()
        mask_s.append(t1 - t0)
        tuple_s.append(t2 - t1)
    tuples = sum(map(len, pools))

    def oracle_pass(rng):
        return [
            rng.choice(oracle_narrow(
                pool, mic.planner.ip_to_host, pin_src, pin_dst, endpoints,
            ))
            for pool, (_nodes, pin_src, pin_dst, endpoints) in zip(pools, segments)
        ]

    def index_pass(rng):
        return [
            restrictions.draw_pair(
                strategy.plausible_pool(nodes, pin_src, pin_dst, endpoints), rng
            )
            for nodes, pin_src, pin_dst, endpoints in segments
        ]

    def built_mask(nodes, src_rank=-1, dst_rank=-1):
        return masks[tuple(nodes), src_rank, dst_rank]

    ours, theirs = random.Random(seed), random.Random(seed)
    oracle_s, draw_s = [], []
    with mock.patch.object(restrictions, "segment_mask", built_mask):
        for _ in range(rounds):
            t0 = time.perf_counter()
            expected = oracle_pass(theirs)
            t1 = time.perf_counter()
            picked = index_pass(ours)
            t2 = time.perf_counter()
            assert picked == expected, "index draw and list draw disagree"
            oracle_s.append(t1 - t0)
            draw_s.append(t2 - t1)
    assert ours.getstate() == theirs.getstate()
    # the fastest pass of each: interference from the host only adds time
    return {
        "draw_segments": len(segments),
        "tuples_materialised": tuples,
        "oracle_draw_s_per_segment": min(oracle_s) / len(segments),
        "draw_s_per_segment": min(draw_s) / len(segments),
        "speedup_draw": min(oracle_s) / min(draw_s),
        "pool_build": {
            "tuples_s_per_segment": min(tuple_s) / len(segments),
            "mask_s_per_segment": min(mask_s) / len(segments),
        },
    }


def run_cold_draw(k: int = 8, walks: int = 96, seed: int = 17, rounds: int = 5) -> dict:
    """Time the first draw pass over ``mic_segments`` on a fresh deployment,
    ``rounds`` deployments."""
    cold_s = []
    for _ in range(rounds):
        dep = deploy_mic(fat_tree(k), seed=0, mic_kwargs={"mn_shift": 1})
        mic, rng = dep.mic, random.Random(seed)
        segments = mic_segments(dep, walks, seed)
        t0 = time.perf_counter()
        for nodes, pin_src, pin_dst, endpoints in segments:
            mic.planner.restrictions.draw_pair(
                mic.strategy.plausible_pool(nodes, pin_src, pin_dst, endpoints), rng
            )
        cold_s.append(time.perf_counter() - t0)
    return {"cold_draw": {
        "segments": len(segments),
        "s_per_segment": min(cold_s) / len(segments),
    }}


def setups(k: int = 16, clients: int = 64, rounds: int = 2, seed: int = 0) -> dict:
    """``clients`` initiators on distinct edge switches of ``fat_tree(k)``,
    each with a responder in another pod, ``rounds`` closed-loop datagram
    set-ups and shutdowns each.  Meant for a fresh interpreter."""
    rng, half = random.Random(seed), k // 2
    edges = rng.sample(range(k * half), clients)
    initiators = [f"h{edge * half + rng.randrange(half) + 1}" for edge in edges]
    taken, pairs = set(initiators), []
    for edge, a in zip(edges, initiators):
        while True:
            b = f"h{rng.randrange(k * half * half) + 1}"
            if b not in taken and (int(b[1:]) - 1) // (half * half) != edge // half:
                break
        taken.add(b)
        pairs.append((a, b, 7000 + len(pairs)))
    t0 = time.perf_counter()
    dep = deploy_mic(
        fat_tree(k), seed=seed,
        mic_kwargs={"cpu_model": "serialized", "flowmod_cpu_s": 200e-6,
                    "mn_bits": 20, "mn_shift": 1},
    )
    t1 = time.perf_counter()
    latencies: list[float] = []

    def client(a, b, port):
        endpoint = dep.endpoint(a)
        for _ in range(rounds):
            start = dep.sim.now
            sock = yield from endpoint.connect_datagram(
                b, service_port=port, n_mns=3, decoys=1)
            latencies.append(dep.sim.now - start)
            yield from endpoint.shutdown(sock)

    procs = [dep.sim.process(client(*pair)) for pair in pairs]
    dep.net.run(until=dep.sim.all_of(procs))
    t2 = time.perf_counter()
    assert len(latencies) == clients * rounds and dep.mic.live_channels == 0
    latencies.sort()
    return {
        "setups": len(latencies),
        "deploy_s": t1 - t0,
        "setups_s": t2 - t1,
        "peak_rss_mb": _peak_rss_kb() / 1024,
        "sim_latency_p50_s": latencies[len(latencies) // 2],
        "sim_latency_max_s": latencies[-1],
    }


def run_setups() -> dict:
    """:func:`setups` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "setups"], check=True, capture_output=True, text=True,
    ).stdout
    return {"setups_k16": json.loads(out)}


def _peak_rss_kb() -> int:
    """This process's resident high-water mark — ``VmHWM``, which starts
    afresh at ``exec``; ``ru_maxrss`` starts at the spawning process's."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))


def rss_growth_mb(k: int, side: str) -> float:
    """How far one rebuild of a bare ``fat_tree(k)`` view pushes this
    process's peak resident set, in MB.  Meant for a fresh interpreter."""
    with mock.patch.object(TopologyView, "_rebuild_distances"):
        view = TopologyView(fat_tree(k))
    before = _peak_rss_kb()
    kept = oracle_rebuild(view) if side == "oracle" else view._rebuild_distances()
    after = _peak_rss_kb()
    del kept
    return (after - before) / 1024


def run_view_build(k: int, rounds: int) -> dict:
    """Time one all-pairs rebuild both ways, ``rounds`` times each."""
    view = TopologyView(fat_tree(k))
    oracle_s, matrix_s = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        dist, to_hosts, host_dist = oracle_rebuild(view)
        t1 = time.perf_counter()
        view._rebuild_distances()
        t2 = time.perf_counter()
        oracle_s.append(t1 - t0)
        matrix_s.append(t2 - t1)
    assert {n: dict(view.dist[n]) for n in view.graph.nodes} == dist
    matrix = view.dist._matrix
    for ours, theirs in [(view._host_dist, host_dist)] + [
        (matrix[view._index[n], view._ranked_cols], to_hosts[n]) for n in to_hosts
    ]:
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    growth = {
        side: float(subprocess.run(
            [sys.executable, __file__, "rss", str(k), side],
            check=True, capture_output=True, text=True,
        ).stdout)
        for side in ("oracle", "matrix")
    }
    # the fastest round of each: interference from the host only adds time
    return {
        f"view_build_k{k}": {
            "nodes": len(view.graph),
            "oracle_s": min(oracle_s),
            "matrix_s": min(matrix_s),
            "speedup": min(oracle_s) / min(matrix_s),
            "oracle_rss_growth_mb": growth["oracle"],
            "matrix_rss_growth_mb": growth["matrix"],
        }
    }


def _save(result: dict) -> pathlib.Path:
    """Merge ``result`` into the one JSON both measurements share."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "restrictions_microbench.json"
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged.update(result)
    out.write_text(json.dumps(merged, indent=2) + "\n")
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


def test_index_draw_at_least_5x_on_fat_tree8():
    result = run_draw(k=8)
    _save(result)
    print(
        f"\nsegment draw, fat_tree(8), {result['draw_segments']} segments:"
        f" lists {result['oracle_draw_s_per_segment'] * 1e6:.0f}us/draw"
        f" ({result['tuples_materialised']} name tuples per pass)"
        f"  index {result['draw_s_per_segment'] * 1e6:.0f}us"
        f" ({result['speedup_draw']:.1f}x)"
    )
    build = result["pool_build"]
    print(
        f"pool build (untimed by the bar): name tuples"
        f" {build['tuples_s_per_segment'] * 1e6:.0f}us/segment,"
        f" geodesic mask {build['mask_s_per_segment'] * 1e6:.0f}us/segment"
    )
    assert result["draw_segments"] == 96 * 8
    assert result["speedup_draw"] >= 5.0


def test_cold_draw_and_fat_tree16_setups_are_reported():
    result = {**run_cold_draw(), **run_setups()}
    _save(result)
    cold, k16 = result["cold_draw"], result["setups_k16"]
    print(
        f"\ncold draw, fat_tree(8), {cold['segments']} segments:"
        f" {cold['s_per_segment'] * 1e6:.0f}us/draw"
        f"\nfat_tree(16), {k16['setups']} set-ups: {k16['setups_s']:.2f}s"
        f" after a {k16['deploy_s']:.2f}s deploy, peak {k16['peak_rss_mb']:.0f} MB"
    )


def test_distance_matrix_at_least_4x_on_fat_tree8_and_2x_on_fat_tree16():
    for k, rounds, bar in VIEW_BUILDS:
        result = run_view_build(k, rounds)
        _save(result)
        row = result[f"view_build_k{k}"]
        print(
            f"\nview build, fat_tree({k}), {row['nodes']} nodes:"
            f" BFS per node {row['oracle_s'] * 1e3:.1f}ms"
            f" (+{row['oracle_rss_growth_mb']:.1f} MB)"
            f"  matrix {row['matrix_s'] * 1e3:.2f}ms"
            f" (+{row['matrix_rss_growth_mb']:.1f} MB, {row['speedup']:.0f}x)"
        )
        assert row["speedup"] >= bar


if __name__ == "__main__":
    if sys.argv[1:2] == ["rss"]:
        print(rss_growth_mb(int(sys.argv[2]), sys.argv[3]))
        sys.exit()
    if sys.argv[1:2] == ["setups"]:
        print(json.dumps(setups()))
        sys.exit()
    res = {**run(), **run_draw(), **run_cold_draw(), **run_setups()}
    for k, rounds, _bar in VIEW_BUILDS:
        res.update(run_view_build(k, rounds))
    path = _save(res)
    print(json.dumps(res, indent=2))
    print(f"saved -> {path}")
