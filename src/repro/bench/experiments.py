"""The paper's evaluation experiments (Sec VI), one function per figure.

Every function builds fresh testbeds, drives the protocols on the simulated
clock, and returns a :class:`~repro.bench.harness.FigureResult` carrying the
same series the paper's figure plots.  ``benchmarks/`` wraps these in
pytest-benchmark targets; EXPERIMENTS.md records paper-vs-measured.
"""

# CPU-usage figures measure real elapsed time by design; the simulated
# results themselves stay seed-deterministic.  # lint: file-allow(wall-clock)

from __future__ import annotations

from typing import Optional, Sequence

from .drivers import Session, open_mic, open_ssl, open_tcp, open_tor
from .harness import FigureResult, run_process, setup_from_spans
from .testbed import Testbed
from ..core.planner import FlowIntent
from ..obs import Histogram
from ..workloads.iperf import measure_echo, measure_transfer

__all__ = [
    "fig7_route_setup",
    "fig8_latency",
    "fig9a_throughput_vs_path_length",
    "fig9b_throughput_vs_flows",
    "fig9c_cpu_usage",
    "scalability_routing_calculation",
    "scalability_vs_fabric",
    "mic_fat_tree_scenario",
]

CLIENT, SERVER = "h1", "h16"  # cross-pod pair, 6 physical hops
ROUTE_LENGTHS = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
def fig7_route_setup(
    seed: int = 0, route_lengths: Sequence[int] = ROUTE_LENGTHS
) -> FigureResult:
    """Fig 7: route setup time vs route length.

    Route length = #MNs for MIC, #relays for Tor; TCP and SSL have no route
    length and appear as flat baselines.

    Every reported number is derived from the observability layer: the
    drivers record one ``bench.setup`` span per session, and this function
    reads those spans back (see docs/observability.md for the worked
    example) — the table and the metrics export cannot disagree.
    """
    result = FigureResult(
        "Fig 7", "Route setup time vs route length",
        x_label="route_len", y_label="setup time", unit="s",
    )
    port = 20000
    for n in route_lengths:
        port += 1
        bed = Testbed.create(seed=seed + n, observe=True)
        run_process(bed.net, open_tcp(bed, CLIENT, SERVER, port))
        run_process(bed.net, open_ssl(bed, CLIENT, SERVER, port + 1000))
        run_process(
            bed.net, open_mic(bed, CLIENT, SERVER, port + 2000, n_mns=n)
        )
        run_process(
            bed.net, open_tor(bed, CLIENT, SERVER, port + 3000, route_len=n)
        )
        result.add("TCP", n, setup_from_spans(bed.obs, "tcp"))
        result.add("SSL", n, setup_from_spans(bed.obs, "ssl"))
        result.add("MIC", n, setup_from_spans(bed.obs, "mic-tcp"))
        result.add("Tor", n, setup_from_spans(bed.obs, "tor"))
    return result


# ---------------------------------------------------------------------------
def fig8_latency(seed: int = 0, payload: int = 10, trials: int = 3) -> FigureResult:
    """Fig 8: 10-byte echo round-trip latency per protocol (established
    sessions; route length 3 for MIC and Tor).

    Each trial's RTT lands in the testbed's ``app.echo_rtt_s`` histogram
    and the reported per-protocol latency is the mean of an aggregate
    :class:`~repro.obs.Histogram` over all trials — the same summary the
    JSON exporter would emit for this metric.
    """
    result = FigureResult(
        "Fig 8", "Echo latency (10 B round trip)",
        x_label="protocol", y_label="latency", unit="s",
    )
    openers = {
        "TCP": lambda bed, port: open_tcp(bed, CLIENT, SERVER, port),
        "SSL": lambda bed, port: open_ssl(bed, CLIENT, SERVER, port),
        "MIC-TCP": lambda bed, port: open_mic(bed, CLIENT, SERVER, port, n_mns=3),
        "MIC-SSL": lambda bed, port: open_mic(
            bed, CLIENT, SERVER, port, n_mns=3, over_ssl=True
        ),
        "Tor": lambda bed, port: open_tor(bed, CLIENT, SERVER, port, route_len=3),
    }
    for name, opener in openers.items():
        aggregate = Histogram()
        for t in range(trials):
            bed = Testbed.create(seed=seed + t, observe=True)
            session = run_process(bed.net, opener(bed, 21000 + t))
            echo = run_process(
                bed.net,
                measure_echo(bed.net.sim, session.client, session.server, payload),
            )
            bed.obs.histogram(
                "app.echo_rtt_s", protocol=session.protocol
            ).observe(echo.rtt_s)
            aggregate.observe(echo.rtt_s)
        result.add(name, "rtt", aggregate.mean)
    return result


# ---------------------------------------------------------------------------
#: transfer volumes per protocol: Tor is event-heavy (per-cell relaying), so
#: it gets a smaller but still steady-state-dominated volume.
VOLUME = {"TCP": 2_000_000, "SSL": 2_000_000, "MIC": 2_000_000, "Tor": 400_000}


def _bulk_session(bed: Testbed, name: str, port: int, n: int) -> Session:
    if name == "TCP":
        return run_process(bed.net, open_tcp(bed, CLIENT, SERVER, port))
    if name == "SSL":
        return run_process(bed.net, open_ssl(bed, CLIENT, SERVER, port))
    if name == "MIC":
        return run_process(bed.net, open_mic(bed, CLIENT, SERVER, port, n_mns=n))
    if name == "Tor":
        return run_process(bed.net, open_tor(bed, CLIENT, SERVER, port, route_len=n))
    raise ValueError(name)


def fig9a_throughput_vs_path_length(
    seed: int = 0,
    route_lengths: Sequence[int] = ROUTE_LENGTHS,
    collect_cpu: Optional[dict] = None,
) -> FigureResult:
    """Fig 9(a): single-flow throughput vs route length.

    TCP/SSL have no route length (flat lines).  When ``collect_cpu`` is a
    dict, per-protocol CPU utilization during the transfer is recorded into
    it — Fig 9(c) reports exactly that instrumentation.
    """
    result = FigureResult(
        "Fig 9(a)", "Throughput of one flow vs route length",
        x_label="route_len", y_label="throughput", unit="bps",
    )
    for name in ("TCP", "SSL", "MIC", "Tor"):
        nbytes = VOLUME[name]
        for n in route_lengths:
            if name in ("TCP", "SSL") and n != route_lengths[0]:
                # No route-length knob: reuse the first measurement as the
                # flat baseline the paper draws.
                result.add(name, n, result.value(name, route_lengths[0]))
                continue
            bed = Testbed.create(seed=seed + n)
            session = _bulk_session(bed, name, 22000 + n, n)
            bed.reset_meters()
            t0 = bed.net.sim.now
            transfer = run_process(
                bed.net,
                measure_transfer(bed.net.sim, session.client, session.server, nbytes),
            )
            result.add(name, n, transfer.goodput_bps)
            if collect_cpu is not None:
                busy = bed.net.total_cpu_busy_s() + bed.mic.cpu_busy_s
                duration = bed.net.sim.now - t0
                collect_cpu.setdefault(name, []).append(
                    busy / duration if duration > 0 else 0.0
                )
    return result


# ---------------------------------------------------------------------------
def fig9b_throughput_vs_flows(
    seeds: Sequence[int] = (0, 1),
    flow_counts: Sequence[int] = (1, 2, 4, 8),
    route_len: int = 3,
) -> FigureResult:
    """Fig 9(b): average throughput vs number of concurrent flows (route
    length 3, the paper's default).

    Averaged over ``seeds``: with a handful of flows, which equal-cost path
    each one lands on dominates the variance for every protocol.
    """
    result = FigureResult(
        "Fig 9(b)", "Average throughput vs number of flows",
        x_label="n_flows", y_label="avg throughput", unit="bps",
    )
    hosts = [f"h{i}" for i in range(1, 17)]
    for name in ("TCP", "SSL", "MIC", "Tor"):
        nbytes = VOLUME[name]
        for count in flow_counts:
            seed_means: list[float] = []
            for seed in seeds:
                seed_means.append(
                    _fig9b_one(name, count, seed, route_len, hosts, nbytes)
                )
            result.add(name, count, sum(seed_means) / len(seed_means))
    return result


def _fig9b_one(
    name: str, count: int, seed: int, route_len: int,
    hosts: Sequence[str], nbytes: int,
) -> float:
    bed = Testbed.create(seed=seed)
    # Sources h1,h3,h5,… sit on distinct edge switches, destinations land on
    # the remaining distinct edges — so edge uplinks never contend and the
    # measurement isolates fabric sharing (agg/core ECMP), the effect the
    # paper's figure is about.
    pairs = [(hosts[(2 * i) % 16], hosts[(2 * i + 9) % 16]) for i in range(count)]
    sessions: list[Session] = []

    def open_all():
        for i, (a, b) in enumerate(pairs):
            port = 23000 + i
            if name == "TCP":
                s = yield from open_tcp(bed, a, b, port)
            elif name == "SSL":
                s = yield from open_ssl(bed, a, b, port)
            elif name == "MIC":
                s = yield from open_mic(bed, a, b, port, n_mns=route_len)
            else:
                s = yield from open_tor(bed, a, b, port, route_len=route_len)
            sessions.append(s)

    run_process(bed.net, open_all())

    goodputs: list[float] = []

    def transfer_all():
        procs = [
            bed.net.sim.process(
                measure_transfer(bed.net.sim, s.client, s.server, nbytes)
            )
            for s in sessions
        ]
        results = yield bed.net.sim.all_of(procs)
        goodputs.extend(r.goodput_bps for r in results)

    run_process(bed.net, transfer_all())
    return sum(goodputs) / len(goodputs)


# ---------------------------------------------------------------------------
def fig9c_cpu_usage(
    seed: int = 0, route_lengths: Sequence[int] = ROUTE_LENGTHS
) -> FigureResult:
    """Fig 9(c): overall CPU usage while running the Fig 9(a) evaluation."""
    cpu: dict = {}
    fig9a_throughput_vs_path_length(seed=seed, route_lengths=route_lengths,
                                    collect_cpu=cpu)
    result = FigureResult(
        "Fig 9(c)", "CPU usage during the Fig 9(a) evaluation",
        x_label="protocol", y_label="CPU (core-equivalents busy)", unit="cores",
    )
    for name, samples in cpu.items():
        result.add(name, "cpu", sum(samples) / len(samples))
    return result


# ---------------------------------------------------------------------------
def scalability_routing_calculation(
    seed: int = 0, flow_counts: Sequence[int] = (1, 2, 4, 8)
) -> FigureResult:
    """Sec VI-C: MC routing-calculation cost is O(|F|) in the m-flow count.

    Measures real (wall-clock) planning compute per channel request,
    excluding rule-install latency, since that is what loads the MC.
    """
    import time

    result = FigureResult(
        "Sec VI-C", "MC routing calculation time vs m-flow count",
        x_label="n_flows", y_label="plan time", unit="s",
    )
    import gc
    import statistics

    for count in flow_counts:
        bed = Testbed.create(seed=seed, pre_wire=False)
        planner, rng = bed.mic.planner, bed.mic.shards[0].rng
        # Warm the per-pair path/plausibility caches: the paper's MC builds
        # its all-pairs structures "when initiation", not per request.
        planner.release(planner.plan(FlowIntent("h1", "h16", 80, 3, 0, "warm"), rng))
        # Median of per-rep wall times, with a collection first: this is a
        # microbenchmark and must not absorb GC pauses caused by earlier
        # experiments' garbage.
        gc.collect()
        reps = 20
        samples = []
        for r in range(reps):
            owner = f"bench{r}-{count}"
            t0 = time.perf_counter()
            plans = [
                planner.plan(FlowIntent("h1", "h16", 80, 3, r * 100 + i, owner), rng)
                for i in range(count)
            ]
            samples.append(time.perf_counter() - t0)
            for plan in plans:
                planner.release(plan)
        result.add("MIC plan", count, statistics.median(samples))
    return result


def scalability_vs_fabric(
    seed: int = 0, ks: Sequence[int] = (4, 6, 8)
) -> FigureResult:
    """Sec VI-C extension: per-channel planning cost vs fabric size.

    The hash work is O(1) in the fabric; only the equal-cost path lookup
    and plausibility sampling touch topology-sized structures (and those
    are cached after first use)."""
    import time

    from ..net import fat_tree

    result = FigureResult(
        "Sec VI-C/fabric", "MC planning time per channel vs fabric size",
        x_label="fabric", y_label="plan time", unit="s",
    )
    for k in ks:
        topo = fat_tree(k)
        # Bigger fabrics need more S_ID values: shrink the g-hash shift so
        # the ID space covers every switch (the knob the paper leaves to
        # the deployment).
        mn_shift = 2 if len(topo.switches()) <= 60 else 1
        bed = Testbed.create(seed=seed, topo=topo, pre_wire=False,
                             relay_hosts=(),
                             mic_kwargs={"mn_shift": mn_shift})
        planner, rng = bed.mic.planner, bed.mic.shards[0].rng
        hosts = topo.hosts()
        src, dst = hosts[0], hosts[-1]
        # Warm the path/plausibility caches (the MC does this at init in
        # the paper: "calculates all-pairs ... when initiation").
        planner.release(planner.plan(FlowIntent(src, dst, 80, 3, 0, "warm"), rng))
        t0 = time.perf_counter()
        reps = 30
        for r in range(reps):
            planner.release(planner.plan(FlowIntent(src, dst, 80, 3, r + 1, f"f{r}"), rng))
        result.add("plan time", f"k={k} ({len(hosts)} hosts)",
                   (time.perf_counter() - t0) / reps)
    return result


def mic_fat_tree_scenario(
    seed: int = 0,
    k: int = 8,
    n_pairs: int = 4,
    n_mns: int = 4,
    payload: int = 256,
) -> FigureResult:
    """End-to-end MIC scenario on a ``k``-ary fat tree (k=8: 80 switches,
    128 hosts).

    Establishes ``n_pairs`` cross-fabric MIC channels, echoes ``payload``
    bytes over each, and reports channel success, simulated time, wall time
    and the MIC rule footprint.  The L3 app is reactive (PacketIn-driven),
    so nothing is pre-wired — the fabric's tables grow only along the
    anonymized paths actually taken, which is what makes large fabrics
    cheap to stand up but makes per-packet classification the hot path
    this scenario exercises.
    """
    import time

    from ..net import fat_tree

    topo = fat_tree(k)
    # Bigger fabrics need more S_ID values: see scalability_vs_fabric.
    mn_shift = 2 if len(topo.switches()) <= 60 else 1
    bed = Testbed.create(seed=seed, topo=topo, pre_wire=False,
                         relay_hosts=(), mic_kwargs={"mn_shift": mn_shift})
    hosts = topo.hosts()
    pairs = [(hosts[i], hosts[-1 - i]) for i in range(n_pairs)]

    t0 = time.perf_counter()
    ok = 0
    for i, (src, dst) in enumerate(pairs):
        session = run_process(
            bed.net, open_mic(bed, src, dst, 30000 + i, n_mns=n_mns)
        )
        echo = run_process(
            bed.net,
            measure_echo(bed.net.sim, session.client, session.server,
                         nbytes=payload),
        )
        if echo is not None and echo.payload_bytes == payload:
            ok += 1
    wall_s = time.perf_counter() - t0

    footprint = bed.mic.rule_footprint()
    result = FigureResult(
        "Sec VI-C/e2e", f"MIC end-to-end scenario on fat_tree({k})",
        x_label="metric", y_label="value",
    )
    result.add("scenario", "hosts", len(hosts))
    result.add("scenario", "switches", len(topo.switches()))
    result.add("scenario", "channels", len(pairs))
    result.add("scenario", "reply_ok", ok / len(pairs))
    result.add("scenario", "sim_time_s", bed.net.sim.now)
    result.add("scenario", "wall_s", wall_s)
    result.add("scenario", "mic_rules_total", sum(footprint.values()))
    result.add("scenario", "mic_rules_max_per_switch",
               max(footprint.values(), default=0))
    return result
