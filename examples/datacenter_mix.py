#!/usr/bin/env python3
"""Data-center workload over MIC: RPC storm with channel reuse (Sec IV-B1).

The paper's channel-management section targets "massive short communication
scenes": re-establishing a channel per RPC would hammer the MC, so channels
are reused across requests between the same participants and kept alive by
periodic notifications.

This example runs a web-search-like RPC workload from many clients to one
backend, with and without channel reuse, and reports request latency plus
MC load.

Run:  python examples/datacenter_mix.py
"""

from repro.core import deploy_mic
from repro.net import fat_tree
from repro.workloads import poisson_arrivals

BACKEND = "h16"
CLIENTS = ["h1", "h2", "h3", "h4", "h5", "h6"]
RPC_BYTES = 512
HORIZON_S = 2.0
RATE_PER_CLIENT = 20.0  # RPCs per second


def run(reuse: bool) -> dict:
    dep = deploy_mic(fat_tree(4), seed=11)
    net = dep.net
    server = dep.server(BACKEND, 9000)

    def backend():
        while True:
            stream = yield server.accept()

            def serve(s):
                while True:
                    try:
                        req = yield from s.recv_exactly(RPC_BYTES)
                    except Exception:
                        return
                    s.send(req[:RPC_BYTES])

            net.sim.process(serve(stream))

    net.sim.process(backend())

    latencies: list[float] = []

    def client(host_name: str):
        endpoint = dep.endpoint(host_name)
        rng = net.sim.rng(f"workload-{host_name}")
        arrivals = list(poisson_arrivals(rng, RATE_PER_CLIENT, HORIZON_S))
        for when in arrivals:
            if when > net.sim.now:
                yield net.sim.timeout(when - net.sim.now)
            t0 = net.sim.now
            stream = yield from endpoint.connect(
                BACKEND, service_port=9000, reuse=reuse
            )
            stream.send(b"q" * RPC_BYTES)
            yield from stream.recv_exactly(RPC_BYTES)
            latencies.append(net.sim.now - t0)

    for name in CLIENTS:
        net.sim.process(client(name))
    net.run(until=HORIZON_S + 5.0)

    latencies.sort()
    return {
        "rpcs": len(latencies),
        "mean_ms": 1e3 * sum(latencies) / len(latencies),
        "p99_ms": 1e3 * latencies[int(0.99 * (len(latencies) - 1))],
        "channels": dep.mic.requests_served,
        "flow_mods": dep.ctrl.flow_mods_sent,
    }


def main() -> None:
    print(f"{len(CLIENTS)} clients x {RATE_PER_CLIENT:.0f} RPC/s for "
          f"{HORIZON_S:.0f}s against {BACKEND}, all over MIC\n")
    for reuse in (False, True):
        stats = run(reuse)
        mode = "reuse ON " if reuse else "reuse OFF"
        print(
            f"  {mode}: {stats['rpcs']:3d} RPCs  "
            f"mean {stats['mean_ms']:6.2f} ms  p99 {stats['p99_ms']:6.2f} ms  "
            f"MC requests {stats['channels']:3d}  flow-mods {stats['flow_mods']:4d}"
        )
    print("\nchannel reuse amortizes establishment: after the first RPC the "
          "MC is out of the loop and latency drops to the raw channel RTT.")


if __name__ == "__main__":
    main()
