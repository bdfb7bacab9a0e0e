"""Event-kernel microbenchmark: plain heap calls vs a closure per event.

Two numbers the packet hot path is made of:

* **callbacks per host second** — a chain of plain callbacks, each
  scheduling the next (what a link or a switch pipeline does per packet),
  through :meth:`Simulator.call_later` with a bound method plus arguments —
  one ``(when, seq, fn, args)`` tuple on the heap, no event object —
  against the closure-per-event idiom it replaced: a bare :class:`Event`, a
  wrapper lambda appended to its callbacks, ``succeed(delay)``, and a
  caller-side closure to carry the arguments.  The idiom is kept here as
  :func:`call_later_closure`, the reference, the way ``lookup_linear`` is
  for the classifier.  (SimPy is not installed in this environment, so the
  SimPy per-packet-process comparison ROADMAP asks for is still open.)
* **host microseconds per switch hop** — packets through a scripted chain
  of rewriting switches (``SetField`` + ``Output`` per hop, no recorder
  attached), end to end: link serialization, pipeline delay, one
  classification, one copy.

The acceptance bar is >=2.0x callbacks per second over the reference.  Run
directly (``python benchmarks/bench_event_kernel.py``) or through pytest;
both write ``benchmarks/results/event_kernel_microbench.json``.
"""

import json
import os
import pathlib
import statistics
import time

from repro.net import FlowEntry, Match, Network, Output, SetField, linear
from repro.sim import Event, Simulator

RESULTS = pathlib.Path(__file__).parent / "results"
QUICK = bool(os.environ.get("BENCH_QUICK"))

CHAIN = 50_000 if QUICK else 200_000
HOP_SWITCHES = 8
HOP_PACKETS = 500 if QUICK else 2_000


def call_later_closure(sim: Simulator, delay: float, fn) -> Event:
    """The replaced idiom: an Event, a wrapper lambda and a succeed()."""
    ev = Event(sim)
    ev.callbacks.append(lambda _ev: fn())
    ev.succeed(delay=delay)
    return ev


class _Chain:
    """``n`` callbacks in a row, each scheduling the next one."""

    def __init__(self, sim: Simulator, n: int):
        self.sim = sim
        self.left = n
        self.token = object()

    def step_direct(self, token) -> None:
        self.left -= 1
        if self.left:
            self.sim.call_later(1e-6, self.step_direct, token)

    def step_closure(self, token) -> None:
        self.left -= 1
        if self.left:
            call_later_closure(self.sim, 1e-6, lambda: self.step_closure(token))


def _time_chain(kind: str, n: int) -> float:
    sim = Simulator()
    chain = _Chain(sim, n)
    step = getattr(chain, "step_" + kind)
    t0 = time.perf_counter()
    step(chain.token)
    sim.run()
    elapsed = time.perf_counter() - t0
    assert chain.left == 0 and sim.now > 0
    return elapsed


def _hop_chain(n_switches: int) -> Network:
    """h1 -- s1 -- ... -- sN -- h2, every switch rewriting and forwarding."""
    net = Network(linear(n_switches, hosts_per_switch=1))
    dst = net.host(f"h{n_switches}")
    for i in range(1, n_switches + 1):
        nxt = f"s{i + 1}" if i < n_switches else dst.name
        net.switch(f"s{i}").table.install(FlowEntry(
            Match(ip_dst=dst.ip),
            [SetField("sport", 1000 + i), Output(net.port(f"s{i}", nxt))],
        ))
    return net


def _time_hops(n_switches: int, n_packets: int) -> tuple[float, int]:
    net = _hop_chain(n_switches)
    src, dst = net.host("h1"), net.host(f"h{n_switches}")
    got = []
    dst.bind("tcp", 80, lambda _host, p: got.append(p.sport))
    t0 = time.perf_counter()
    for i in range(n_packets):
        net.sim.call_later(
            i * 20e-6, src.send_packet,
            src.make_packet(dst.ip, dport=80, payload_size=1000),
        )
    net.run()
    elapsed = time.perf_counter() - t0
    hops = sum(sw.packets_forwarded for sw in net.switches())
    assert got == [1000 + n_switches] * n_packets and hops == n_switches * n_packets
    lookups = sum(sw.table.cache_hits + sw.table.cache_misses for sw in net.switches())
    assert lookups == hops, "a hop classified its packet more than once"
    return elapsed, hops


def run(chain: int = CHAIN, rounds: int = 5) -> dict:
    """Measure both scheduling idioms and the per-hop cost."""
    closure_s = statistics.median(_time_chain("closure", chain) for _ in range(rounds))
    direct_s = statistics.median(_time_chain("direct", chain) for _ in range(rounds))
    hop_samples = [_time_hops(HOP_SWITCHES, HOP_PACKETS) for _ in range(3)]
    hop_s, hops = min(hop_samples)
    return {
        "chained_callbacks": chain,
        "rounds": rounds,
        "closure_s": closure_s,
        "call_later_s": direct_s,
        "closure_callbacks_per_s": chain / closure_s,
        "call_later_callbacks_per_s": chain / direct_s,
        "speedup": closure_s / direct_s,
        "hop_switches": HOP_SWITCHES,
        "hop_packets": HOP_PACKETS,
        "switch_hops": hops,
        "host_us_per_switch_hop": hop_s / hops * 1e6,
    }


def _save(result: dict) -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "event_kernel_microbench.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    return out


def test_call_later_at_least_2x_the_closure_idiom():
    result = run()
    _save(result)
    print(
        f"\nevent kernel: {result['chained_callbacks']} chained callbacks  "
        f"closure {result['closure_s']:.3f}s  call_later {result['call_later_s']:.3f}s"
        f" ({result['speedup']:.2f}x, "
        f"{result['call_later_callbacks_per_s'] / 1e6:.2f} M callbacks/s)  "
        f"switch hop {result['host_us_per_switch_hop']:.1f} us"
    )
    assert result["speedup"] >= 2.0


if __name__ == "__main__":
    res = run()
    path = _save(res)
    print(json.dumps(res, indent=2))
    print(f"saved -> {path}")
