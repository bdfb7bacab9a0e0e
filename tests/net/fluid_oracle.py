"""Oracles for ``FluidSolver``: the loop it replaced, and the max-min certificate.

``full_scan_solve`` is the one-level-per-round water-filling loop
``FluidSolver`` ran before the incremental loop, kept verbatim (and the
baseline of ``benchmarks/bench_fluid_solver.py``): every round re-gathers
the whole flow×link incidence — ``active[flow_of]``, a fresh
``np.bincount``, ``rates[active] += share``, ``saturated[link_of]`` — to
freeze a handful of flows, and reads a link as saturated within a relative
1e-9 of its capacity.  The parallel loop in :mod:`repro.net.fluid` does not
perform the same float operations, so rates are compared with it to a
relative tolerance, on instances whose capacities and caps are finite (this
loop reads an infinite link as saturated in its first round).

The only edits against the replaced method are the signature (the solver's
three dicts arrive as arguments instead of ``self._flows`` /
``self._capacity`` / ``self._external``) and the ``rounds`` counter.

:func:`assert_max_min_fair` checks any solver's rates against the definition
instead.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.net import FluidFlow

INF = float("inf")
#: relative slack of the certificate: float error, not a saturation floor
REL = 1e-12


def full_scan_solve(
    flows: dict[str, FluidFlow],
    capacity: dict,
    external: dict,
) -> tuple[dict[str, float], int]:
    """Progressive filling over flat incidence arrays; ``(rates, rounds)``."""
    flow_ids = list(flows)
    n_flows = len(flow_ids)
    link_ids = list(capacity)
    link_index = {l: i for i, l in enumerate(link_ids)}
    caps = [
        max(capacity[l] - external.get(l, 0.0), 0.0)
        for l in link_ids
    ]
    # Virtual single-user cap links keep the filling loop uniform.
    flat_flow: list[int] = []
    flat_link: list[int] = []
    for fi, fid in enumerate(flow_ids):
        flow = flows[fid]
        for l in flow.links:
            flat_flow.append(fi)
            flat_link.append(link_index[l])
        if flow.rate_cap_bps is not None:
            flat_flow.append(fi)
            flat_link.append(len(caps))
            caps.append(flow.rate_cap_bps)

    cap_arr = np.asarray(caps, dtype=np.float64)
    n_links = len(caps)
    flow_of = np.asarray(flat_flow, dtype=np.intp)
    link_of = np.asarray(flat_link, dtype=np.intp)
    rates = np.zeros(n_flows, dtype=np.float64)
    remaining = cap_arr.copy()
    # Pathless flows are unconstrained (inf), mirroring the reference.
    has_links = np.zeros(n_flows, dtype=bool)
    has_links[flow_of] = True
    active = has_links.copy()
    # Relative saturation tolerance (reference uses absolute 1e-9; at
    # gigabit capacities float error alone exceeds that).
    sat_floor = np.maximum(cap_arr * 1e-9, 1e-9)

    rounds = 0
    while active.any():
        on_active = active[flow_of]
        users = np.bincount(link_of[on_active], minlength=n_links)
        used = users > 0
        if not used.any():
            break
        rounds += 1
        share = float(np.min(remaining[used] / users[used]))
        share = max(share, 0.0)
        rates[active] += share
        remaining -= share * users
        saturated = used & (remaining <= sat_floor)
        frozen = np.zeros(n_flows, dtype=bool)
        hit = on_active & saturated[link_of]
        frozen[flow_of[hit]] = True
        if not frozen.any():
            # Numerical safety, as in the reference: freeze the
            # lexicographically-first active flow.
            first = min(
                (fid, i) for i, fid in enumerate(flow_ids) if active[i]
            )[1]
            frozen[first] = True
        active &= ~frozen

    out: dict[str, float] = {}
    for i, fid in enumerate(flow_ids):
        out[fid] = float(rates[i]) if has_links[i] else float("inf")
    return out, rounds


def full_scan_link_load(
    flows: dict[str, FluidFlow], rates: dict[str, float]
) -> dict:
    """The replaced ``link_fluid_load_bps``: one dict update per flow×link."""
    load: dict = {}
    for fid, flow in flows.items():
        r = rates[fid]
        if r == float("inf"):
            continue
        for l in flow.links:
            load[l] = load.get(l, 0.0) + r
    return load


def ecmp_instance(
    k: int, n_flows: int, seed: int = 0, capacity_bps: float = 1e9
) -> tuple[dict[str, float], dict[str, FluidFlow]]:
    """``n_flows`` random host pairs on ``fat_tree(k)`` hash-ECMP paths.

    Returns ``(capacities, flows)`` over directed links named ``"a->b"`` —
    the traffic shape of the hybrid scale benchmarks.
    """
    import random

    from repro.bench.hybrid_scenario import fat_tree_path
    from repro.net import fat_tree

    topo = fat_tree(k)
    hosts = topo.hosts()
    capacities = {
        f"{u}->{v}": capacity_bps
        for a, b in topo.graph.edges
        for u, v in ((a, b), (b, a))
    }
    rng = random.Random(seed)
    flows: dict[str, FluidFlow] = {}
    for i in range(n_flows):
        src, dst = rng.sample(hosts, 2)
        path = fat_tree_path(k, src, dst, f"ch-{i}")
        flows[f"ch-{i}"] = FluidFlow(
            f"ch-{i}", [f"{a}->{b}" for a, b in zip(path, path[1:])]
        )
    return capacities, flows


def assert_max_min_fair(solver):
    """The bottleneck certificate of max-min fairness for ``solver.rates()``.

    Every link carries at most its effective capacity, and every finite-rate
    flow has a bottleneck: a saturated link — physical, or its own rate cap —
    on which no flow has a higher rate (Bertsekas & Gallager, *Data
    Networks*, §6.5.2).  A flow gets inf exactly when every link along it,
    cap included, has infinite effective capacity, and no rate is nan.
    """
    rates = solver.rates()
    alloc = solver.allocation()
    eff, load = alloc.link_capacity_bps, alloc.link_load_bps
    assert not any(math.isnan(r) for r in rates.values())
    for link, carried in load.items():
        assert carried <= eff[link] * (1 + REL), (link, carried, eff[link])
    rates_on = defaultdict(list)
    for fid, r in rates.items():
        for link in set(solver.flow_links(fid)):
            rates_on[link].append(r)
    caps = solver._rate_caps
    for fid, r in rates.items():
        links = solver.flow_links(fid)
        bounds = [eff[link] for link in links] + [caps.get(fid, INF)]
        if all(b == INF for b in bounds):
            assert r == INF, fid
            continue
        assert r < INF, fid
        if fid in caps and r >= caps[fid] * (1 - REL):
            continue  # its cap link is saturated and has no other user
        assert any(
            load[link] >= eff[link] * (1 - REL)
            and max(x for x in rates_on[link] if x < INF) <= r * (1 + REL)
            for link in links
        ), f"{fid} at {r} has no bottleneck"
