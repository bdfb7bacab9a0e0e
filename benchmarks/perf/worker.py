"""Run one repetition of one workload in this process; print one JSON document.

``run.py`` starts this file in a fresh interpreter for every repetition
(``PYTHONHASHSEED`` fixed, nothing else running in the process).  The repo
keeps module-level id counters (channel, group, cookie and key ids) that a
second deployment in the same process would inherit, and they reach the
simulated results of the sharded control plane; a fresh process per
repetition is what makes every repetition simulate exactly the same thing,
and keeps one repetition's heap and RSS out of the next one's numbers.

The reference kernel is timed before and after the repetition.  With
``--trace 1`` the repetition runs under ``cProfile`` and the document also
carries the per-layer values.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.normpath(os.path.join(HERE, os.pardir, os.pardir, "src")))

from layers import LAYERS, function_calls, rollup  # noqa: E402
from workloads import WORKLOADS, Rep  # noqa: E402

COUNTERS = [
    "sim.events", "sim.events_per_wall_s",
    "net.flowtable.lookups", "net.flowtable.cache_hit_ratio",
    "net.flowtable.installs", "net.flowtable.removes",
    "net.switch.packets_forwarded", "net.switch.packets_punted",
    "net.switch.packets_dropped_dead",
    "net.link.packets", "net.link.drops", "net.host.bytes_received",
    "net.fluid.resolves", "net.hybrid.epochs", "net.hybrid.bytes_advanced",
    "net.hybrid.debited_bytes",
    "sdn.controller.flow_mods_sent", "sdn.controller.flow_mods_retried",
    "sdn.controller.flow_mods_lost", "sdn.controller.packet_in_count",
    "core.controller.requests_served", "core.controller.cpu_busy_sim_s",
    "core.controller.repairs_completed", "core.controller.repairs_parked",
    "core.controller.resyncs_completed", "core.controller.rules_peak",
    "controlplane.remote_installs", "controlplane.request_skew",
    "tor.cells_relayed", "tor.circuits_created",
    "obs.journey_events", "obs.spans",
]
SPANS = ["span.setup_s", "span.establish_s", "span.measure_s", "span.teardown_s",
         "span.score_s", "leg.tcp_s", "leg.mic_s", "leg.mic_hardened_s", "leg.tor_s",
         "leg.shards1_s", "leg.shards4_s"]
SIM = ["sim_goodput_bps", "sim_mic_tcp_goodput_ratio", "sim_setup_p50_s",
       "sim_setup_p95_s", "sim_setups_per_s", "sim_shard_speedup", "sim_rtt_p50_s",
       "sim_rtt_p99_s", "sim_repair_max_s", "sim_probe_loss_ratio"]
HOST = ["host.py_calls", "host.calib_s", "host.wall_raw_s", "host.trace_overhead"]

#: units that the name does not give away (``*_s`` is seconds, the rest counts)
UNITS = {
    "peak_rss_mb": "MB",
    "sim.events_per_wall_s": "1/s", "net.flowtable.cache_hit_ratio": "ratio",
    "net.host.bytes_received": "B", "net.hybrid.bytes_advanced": "B",
    "net.hybrid.debited_bytes": "B", "controlplane.request_skew": "ratio",
    "sim_goodput_bps": "bit/s", "sim_mic_tcp_goodput_ratio": "ratio",
    "sim_setups_per_s": "1/s", "sim_shard_speedup": "ratio",
    "sim_probe_loss_ratio": "ratio", "host.trace_overhead": "ratio",
}
END_TO_END = ["wall_s", "setup_s", "peak_rss_mb"]
PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
    + COUNTERS + SPANS + SIM + HOST
)


def unit_of(name: str) -> str:
    """The unit a metric is printed with."""
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


class _Cell:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def bump(self, k: int) -> int:
        self.n += k
        return self.n


def calib_kernel() -> float:
    """Host seconds for a fixed heap / dict / method-call loop.

    The same mix of interpreter work the simulator's hot path does, with no
    dependence on the repo: when the machine slows down, this slows down with
    it, and dividing by it takes the drift out of a host time.
    """
    heap: list = []
    table: dict = {}
    cell = _Cell()
    # The collector's pauses grow with whatever the repetition left on the
    # heap; they are the process's state, not the machine's speed.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(130_000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            table[i & 1023] = cell.bump(i & 7)
            if i & 1:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_rep(workload: str, seed: int, scale: int, rep_id: int,
            profiler: cProfile.Profile | None = None) -> Rep:
    """One repetition, set-up through scoring; never raises."""
    gc.collect()
    rep = Rep(workload, rep_id, trace=profiler is not None)
    if profiler is not None:
        profiler.enable()
    try:
        with rep.span("rep"):
            WORKLOADS[workload](rep, seed, scale)
    finally:
        if profiler is not None:
            profiler.disable()
    return rep


def layer_values(rep: Rep, entries) -> dict:
    """The per-layer metrics of one profiled repetition."""
    self_s, calls, total_calls = rollup(entries)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
    counters = dict(rep.counters)
    hits = counters.pop("net.flowtable.cache_hits", 0)
    lookups = hits + counters.pop("net.flowtable.cache_misses", 0)
    values.update(counters)
    values["net.flowtable.lookups"] = lookups
    values["net.flowtable.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    values["net.flowtable.installs"] = function_calls(
        entries, "net.flowtable", ("install",))
    values["net.flowtable.removes"] = function_calls(
        entries, "net.flowtable", ("remove", "remove_by_cookie"))
    values["sim.events"] = function_calls(entries, "sim.engine", ("step",))
    for name in SPANS:
        values[name] = rep.total(name.removeprefix("span.").removesuffix("_s"))
    values.update(rep.sim)
    values["host.py_calls"] = total_calls
    return values | {"attributed_s": sum(self_s.values())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args()
    calib_kernel()  # discarded: the first pass in a fresh process runs cold
    calibs = [calib_kernel() for _ in range(3)]
    profiler = cProfile.Profile() if args.trace else None
    rep = run_rep(args.workload, args.seed, args.scale, args.rep, profiler)
    calibs += [calib_kernel() for _ in range(3)]
    setup_s = rep.total("setup")
    doc = {
        "workload": args.workload, "seed": args.seed, "rep": args.rep,
        "attempted": rep.attempted, "failed": rep.failed, "notes": rep.notes,
        "info": rep.info,
        "sim_digest": rep.digest, "sim": rep.sim, "spans": rep.spans,
        "calib_s": calibs, "setup_s": setup_s, "wall_s": rep.total("rep") - setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if profiler is not None:
        doc["layers"] = layer_values(rep, profiler.getstats())
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
