"""Control-plane scale-out scenario: channel-setup churn vs shard count.

Controller shards (``MimicController(shards=N)``) exist to lift the
Mimic Controller's channel-establishment throughput: with one shard every
multi-segment walk installs serially through a single controller, while
N shards split switch ownership and pipeline the ``install_batch``
fan-out.  This driver measures exactly that effect in
*simulated* time:

* ``clients`` hosts, spread across distinct edge switches, each run a
  connect → shutdown churn loop for ``rounds`` iterations;
* the controller runs the ``"serialized"`` CPU model, so every shard is a
  single-core controller: request decrypt/plan compute and per-flow-mod
  issue cost (``flowmod_cpu_s``) queue FIFO per shard;
* the headline number is ``setups_per_sim_s`` — completed channel
  establishments over the simulated span of the churn phase.  With one
  shard every client's setup compute funnels through one core; with N
  shards ownership spreads the queues, so the ratio between shard counts
  is the control plane's scale-out factor (machine-independent: it is
  simulated throughput, not wall time).

With ``profile=True`` a :class:`repro.obs.Profiler` is hooked for the
run — setup attributed to ``scenario.setup``, ownership routing to
``controlplane.route`` — and the report lands in ``result.profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.deployment import MicDeployment, deploy_mic
from ..net.topology import fat_tree

__all__ = ["ShardChurnResult", "run_shard_churn"]


@dataclass
class ShardChurnResult:
    """One churn run's outcome (see :func:`run_shard_churn`)."""

    k: int
    shards: int
    clients: int
    rounds: int
    hosts: int
    switches: int
    setups: int = 0
    teardowns: int = 0
    #: simulated seconds from churn start to the last client finishing
    sim_span_s: float = 0.0
    #: per-shard control requests served / channels owned at peak
    requests_by_shard: dict[int, int] = field(default_factory=dict)
    installs_by_shard: dict[int, int] = field(default_factory=dict)
    remote_installs: int = 0
    #: the profiler's ``report().to_doc()`` when profiled, else None
    profile: Optional[dict] = None
    deployment: Optional[MicDeployment] = None

    @property
    def setups_per_sim_s(self) -> float:
        """Completed setups over the simulated churn span (the headline)."""
        return self.setups / self.sim_span_s if self.sim_span_s > 0 else 0.0


def run_shard_churn(
    k: int = 8,
    shards: int = 1,
    clients: int = 16,
    rounds: int = 3,
    n_mns: int = 3,
    decoys: int = 1,
    seed: int = 0,
    flowmod_cpu_s: float = 200e-6,
    profile: bool = False,
    time_limit_s: float = 120.0,
) -> ShardChurnResult:
    """Run the churn scenario on ``fat_tree(k)`` with ``shards`` shards.

    Every client host is picked on a distinct edge switch (stride over the
    sorted host list), so rendezvous ownership actually spreads the load;
    each runs ``rounds`` connect/shutdown cycles against a cross-fabric
    responder.  Returns a :class:`ShardChurnResult`; compare
    ``setups_per_sim_s`` across shard counts for the scale-out ratio.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    prof = None
    if profile:
        from ..obs.prof import Profiler

        prof = Profiler(sample_every=1000)
        prof.enter("scenario.setup")

    topo = fat_tree(k)
    # Bigger fabrics need the wider MN label space (as the other fat_tree(8)
    # scenarios do): 80 switches overflow the default 64 S_ID values.
    mn_shift = 2 if len(topo.switches()) <= 60 else 1
    dep = deploy_mic(
        topo,
        seed=seed,
        shards=shards,
        mic_kwargs={"cpu_model": "serialized", "flowmod_cpu_s": flowmod_cpu_s,
                    "mn_shift": mn_shift},
    )
    sim = dep.sim
    all_hosts = sorted(topo.hosts(), key=lambda h: int(h[1:]))
    half = len(all_hosts) // 2
    if clients > half:
        raise ValueError(f"clients {clients} > {half} available pairs")
    # Initiators stride across the first half of the fabric (distinct edge
    # switches while clients <= edge-switch count); responders mirror from
    # the far end so every walk crosses the core.
    stride = max(1, half // clients)
    pairs = [
        (all_hosts[i * stride], all_hosts[-1 - i * stride], 7000 + i)
        for i in range(clients)
    ]

    result = ShardChurnResult(
        k=k, shards=shards, clients=clients, rounds=rounds,
        hosts=len(all_hosts), switches=len(topo.switches()),
        deployment=dep,
    )
    finish_times: list[float] = []

    def churn(idx: int, a: str, b: str, port: int):
        endpoint = dep.endpoint(a)
        for _round in range(rounds):
            sock = yield from endpoint.connect_datagram(
                b, service_port=port, n_mns=n_mns, decoys=decoys
            )
            result.setups += 1
            yield from endpoint.shutdown(sock)
            result.teardowns += 1
        finish_times.append(sim.now)

    if prof is not None:
        prof.exit()
        prof.hook(dep.net)

    t0 = sim.now
    for idx, (a, b, port) in enumerate(pairs):
        sim.process(churn(idx, a, b, port), name=f"shardchurn.client{idx}")
    deadline = t0 + time_limit_s
    while len(finish_times) < clients and sim.now < deadline:
        dep.run_for(0.25)
    if len(finish_times) < clients:
        raise RuntimeError(
            f"churn incomplete: {len(finish_times)}/{clients} clients "
            f"finished within {time_limit_s}s simulated"
        )
    result.sim_span_s = max(finish_times) - t0

    mic = dep.mic
    result.requests_by_shard = {
        s.shard_id: s.requests_served for s in mic.shards
    }
    result.installs_by_shard = {
        s.shard_id: s.installs_issued for s in mic.shards
    }
    result.remote_installs = mic.remote_installs
    if prof is not None:
        result.profile = prof.report().to_doc()
    return result
