"""Self-profiler overhead: the disabled path must cost (almost) nothing.

The acceptance bar for the profiling layer is that an unhooked run — no
method of the simulator, flow tables or hosts wrapped — slows a
packet-pushing run by at most 2% of wall time.  The profiler wraps every
instrumented method, ``Simulator.step`` included, on the hooked instance
from outside; no kernel slot is left, so an unhooked run executes exactly
the code a profiler-free build would and the bar holds by construction;
this bench keeps it honest by measuring.  ``Profiler.attach(net,
enabled=False)`` — the call-site idiom — and a fully hooked profiler (with
and without dispatch sampling) are reported alongside; live frames do real
clock reads per event and carry no 2% bar.

Timing is CPU time (``time.process_time``) with the garbage collector
paused, min-of-N over interleaved repetitions — wall clocks on shared CI
machines are too noisy to resolve a 2% bound.
"""

import gc
import time

from repro.bench import FigureResult
from repro.net import FlowEntry, Match, Network, Output, linear
from repro.obs import Profiler

PACKETS = 2500
SPACING_S = 1e-4
REPS = 10


def _burst_time(mode: str) -> float:
    """Wall seconds to push PACKETS packets through a 3-switch chain."""
    net = Network(linear(3, hosts_per_switch=1), seed=11)
    h1, h3 = net.host("h1"), net.host("h3")
    for sw, out in (("s1", ("s1", "s2")), ("s2", ("s2", "s3")),
                    ("s3", ("s3", "h3"))):
        net.switch(sw).table.install(
            FlowEntry(Match(ip_dst=h3.ip), [Output(net.port(*out))])
        )
    h3.bind("tcp", 80, lambda host, p: None)
    if mode == "attach-disabled":
        prof = Profiler.attach(net, enabled=False)
        assert prof is None  # statically dead: no object, no hooks
    elif mode == "enabled":
        Profiler.attach(net)
    elif mode == "enabled-sampling":
        Profiler.attach(net, sample_every=100)

    def _send(i):
        net.sim.call_at(
            i * SPACING_S,
            lambda: h1.send_packet(
                h1.make_packet(h3.ip, sport=1000 + (i % 50000), dport=80,
                               payload_size=100)
            ),
        )

    for i in range(PACKETS):
        _send(i)
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        net.run()
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    assert h3.packets_received == PACKETS
    return elapsed


MODES = ("baseline", "attach-disabled", "enabled", "enabled-sampling")


def run_overhead() -> FigureResult:
    result = FigureResult(
        "Profiler overhead",
        "wall-time cost of self-profiling hooks on a packet-pushing run",
        x_label="configuration", y_label="relative wall time", unit="x",
    )
    for mode in MODES:  # warm-up pass: imports, allocator, branch caches
        _burst_time(mode)
    best = {mode: float("inf") for mode in MODES}
    for _ in range(REPS):  # interleaved so drift hits every mode equally
        for mode in MODES:
            best[mode] = min(best[mode], _burst_time(mode))
    for mode in MODES:
        result.add("overhead", mode, best[mode] / best["baseline"])
    return result


def test_prof_overhead(benchmark, save_table):
    result = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    save_table("prof_overhead", result)

    # The acceptance bar: profiling disabled is within 2% of baseline.
    assert result.value("overhead", "attach-disabled") <= 1.02
    # A live profiler pays two clock reads per dispatch plus frame
    # bookkeeping at each instrumented site — real cost, sane bounds.
    assert result.value("overhead", "enabled") < 3.0
    assert result.value("overhead", "enabled-sampling") < 3.0
