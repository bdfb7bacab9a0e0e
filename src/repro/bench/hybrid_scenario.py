"""Large-fabric hybrid scenario driver (the scale benchmark's engine room).

Controller-driven wiring is quadratic in hosts (``wire_all_pairs`` on
fat_tree(16) would install rules for ~1M pairs), so this driver computes
fat-tree shortest paths *arithmetically* — O(path length) per pair, with a
deterministic hash-based ECMP choice — and installs static flow entries
only for the sampled packet-level subset.  The fluid bulk never touches a
flow table: its path is handed straight to the hybrid engine.

``run_hybrid_scenario`` is what ``benchmarks/bench_hybrid_scale.py`` and
the scale experiments drive: N concurrent channels over fat_tree(k), a
hash-sampled packet subset riding real TCP with peer reservations, and
everything else advancing as fluid rates.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, field
from typing import Optional

from ..net import FlowEntry, HybridEngine, Match, Network, Output, fat_tree
from ..obs import Observer
from ..transport import TcpStack
from ..workloads.duplex import as_duplex
from ..workloads.iperf import measure_transfer

__all__ = ["HybridScenarioResult", "fat_tree_path", "run_hybrid_scenario"]


def _ecmp_pick(n: int, *parts: object) -> int:
    """Deterministic, seed-free choice in [0, n): hash of the identifiers."""
    key = ":".join(str(p) for p in parts).encode("utf-8")
    return zlib.crc32(key) % n


def fat_tree_path(k: int, src: str, dst: str, salt: object = 0) -> list[str]:
    """Arithmetic shortest path between two hosts of ``fat_tree(k)``.

    Mirrors the naming scheme of :func:`repro.net.topology.fat_tree`
    (hosts ``h1..h{k^3/4}`` numbered pod-by-pod, edge switches ``p{pod}e{i}``,
    aggregation ``p{pod}a{i}``, cores ``c{1..(k/2)^2}``).  Among the equal-cost
    candidates the aggregation and core hops are picked by a deterministic
    hash of (src, dst, salt) — same inputs, same path, any process.
    """
    half = k // 2
    per_pod = half * half

    def locate(host: str) -> tuple[int, int]:
        idx = int(host[1:]) - 1
        if not 0 <= idx < k * per_pod:
            raise ValueError(f"{host} is not a host of fat_tree({k})")
        return idx // per_pod, (idx % per_pod) // half

    spod, sedge = locate(src)
    dpod, dedge = locate(dst)
    if src == dst:
        raise ValueError("src and dst must differ")
    se, de = f"p{spod}e{sedge}", f"p{dpod}e{dedge}"
    if (spod, sedge) == (dpod, dedge):
        return [src, se, dst]
    if spod == dpod:
        agg = _ecmp_pick(half, src, dst, salt, "agg")
        return [src, se, f"p{spod}a{agg}", de, dst]
    agg = _ecmp_pick(half, src, dst, salt, "agg")
    core = agg * half + _ecmp_pick(half, src, dst, salt, "core") + 1
    return [src, se, f"p{spod}a{agg}", f"c{core}", f"p{dpod}a{agg}", de, dst]


def _install_path_rules(
    net: Network, path: list[str], priority: int = 10, cookie: int = 0
) -> int:
    """Static forward+reverse unicast rules along ``path``; returns installs."""
    src_ip = net.host(path[0]).ip
    dst_ip = net.host(path[-1]).ip
    installed = 0
    for hops, match in (
        (path, Match(ip_src=src_ip, ip_dst=dst_ip)),
        (list(reversed(path)), Match(ip_src=dst_ip, ip_dst=src_ip)),
    ):
        for here, nxt in zip(hops[1:-1], hops[2:]):
            net.switch(here).table.install(
                FlowEntry(match, [Output(net.port(here, nxt))],
                          priority=priority, cookie=cookie)
            )
            installed += 1
    return installed


def _remove_path_rules(net: Network, path: list[str], cookie: int) -> int:
    """Remove a segment's cookie-tagged rules (the rotation's removal leg)."""
    removed = 0
    for node in path[1:-1]:
        removed += net.switch(node).table.remove_by_cookie(cookie)
    return removed


@dataclass
class HybridScenarioResult:
    """What one hybrid scale run did and measured (simulated side only)."""

    k: int
    channels: int
    payload_bytes: int
    sample_rate: float
    #: anonymity strategy the traffic model emulates ("mic"|"tarn"|"frvm")
    strategy: str = "mic"
    #: lane count the strategy expanded the channels into (== channels for
    #: mic/tarn; channels x FRVM_LANES under frvm)
    lanes: int = 0
    #: address/path re-draws performed (tarn's rotation churn; 0 otherwise)
    rotations: int = 0
    hosts: int = 0
    switches: int = 0
    fluid_flows: int = 0
    packet_flows: int = 0
    fluid_finished: int = 0
    packet_finished: int = 0
    #: when the last lane finished (the time limit when one never did)
    sim_time_s: float = 0.0
    epochs: int = 0
    resolves: int = 0
    bytes_advanced: float = 0.0
    debited_bytes: float = 0.0
    rules_installed: int = 0
    #: per-flow goodputs (bps), keyed by flow id
    fluid_goodput_bps: dict[str, float] = field(default_factory=dict)
    packet_goodput_bps: dict[str, float] = field(default_factory=dict)
    #: attached observer when requested, for snapshot export
    observer: Optional[Observer] = None
    #: profile document (ProfileReport.to_doc()) when ``profile=True``
    profile: Optional[dict] = None

    def mean_goodput_bps(self, side: str = "fluid") -> float:
        """Mean per-flow goodput for one side ('fluid' | 'packet')."""
        vals = (
            self.fluid_goodput_bps if side == "fluid" else self.packet_goodput_bps
        )
        return sum(vals.values()) / len(vals) if vals else 0.0


#: frvm's lane fan-out at hybrid scale (k aliases → k parallel lanes)
FRVM_LANES = 2
#: tarn's sequential re-draws per lane (each segment takes a fresh path)
TARN_SEGMENTS = 3


def run_hybrid_scenario(
    k: int = 16,
    channels: int = 10_000,
    payload_bytes: int = 1_000_000,
    sample_rate: float = 0.01,
    epoch_s: float = 0.010,
    seed: int = 0,
    observe: bool = False,
    profile: bool = False,
    time_limit_s: float = 60.0,
    strategy: str = "mic",
) -> HybridScenarioResult:
    """Drive ``channels`` concurrent transfers over fat_tree(k) in hybrid mode.

    Every channel gets a deterministic host pair and ECMP path; the engine's
    hash decides which stay packet-level (they ride real TCP with a peer
    reservation) and which advance as fluid.  Runs until every transfer
    finishes or ``time_limit_s`` simulated seconds elapse.

    ``strategy`` applies an anonymity strategy's *traffic model* at scale
    (the control plane itself is not stood up — fat_tree(16) with 10k
    channels is beyond reactive wiring):

    * ``"mic"`` — one lane per channel, one path (the baseline);
    * ``"frvm"`` — every channel splits its payload across ``FRVM_LANES``
      parallel lanes with independently salted paths (alias striping);
    * ``"tarn"`` — every lane sends ``TARN_SEGMENTS`` sequential payload
      segments, each over a freshly salted path (timed rotation); the
      packet-level subset re-installs and removes its rules per segment,
      so the rotation's rule churn shows up in ``rules_installed``.

    ``channels`` or ``payload_bytes`` not an int >= 1, a ``sample_rate``
    outside [0, 1] or a bad period is a ``ValueError`` before any build.

    With ``profile=True`` a :class:`repro.obs.Profiler` is hooked for the
    run — setup attributed to ``scenario.setup``, the run loop to the
    contracted subsystems — and the report lands in ``result.profile``.
    """
    import random

    from ..anonymity import STRATEGIES
    from ..obs.prof import Profiler

    if strategy not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown strategy {strategy!r} (known: {known})")
    for name, value, ok in (
        ("channels", channels, isinstance(channels, numbers.Integral) and channels >= 1),
        ("payload_bytes", payload_bytes,
         isinstance(payload_bytes, numbers.Integral) and payload_bytes >= 1),
        ("sample_rate", sample_rate, 0 <= sample_rate <= 1),
        ("epoch_s", epoch_s, 0 < epoch_s < math.inf),
        ("time_limit_s", time_limit_s, time_limit_s > 0),
    ):
        if not ok:
            raise ValueError(f"bad {name}: {value!r}")

    prof = Profiler(sample_every=1000) if profile else None
    if prof is not None:
        prof.enter("scenario.setup")

    topo = fat_tree(k)
    net = Network(topo, seed=seed)
    obs = Observer.attach(net) if observe else None
    eng = HybridEngine(net, epoch_s=epoch_s, sample_rate=sample_rate)
    result = HybridScenarioResult(
        k=k, channels=channels, payload_bytes=payload_bytes,
        sample_rate=sample_rate, strategy=strategy,
        hosts=len(topo.hosts()), switches=len(topo.switches()),
        observer=obs,
    )

    def _split(nbytes: int, parts: int) -> list[int]:
        parts = max(1, min(parts, nbytes))
        base = nbytes // parts
        return [base] * (parts - 1) + [nbytes - base * (parts - 1)]

    rng = random.Random(seed)
    hosts = topo.hosts()
    # (lane_fid, src, dst, [segment paths], bytes)
    packet_jobs: list[tuple[str, str, str, list[list[str]], int]] = []
    fluid_rotors: list[tuple[str, list[list[str]], int]] = []
    fluid_handles = []
    for i in range(channels):
        src, dst = rng.sample(hosts, 2)
        fid = f"ch-{i}"
        if strategy == "frvm":
            lane_jobs = [
                (f"{fid}/l{lane}", b)
                for lane, b in enumerate(_split(payload_bytes, FRVM_LANES))
            ]
        else:
            lane_jobs = [(fid, payload_bytes)]
        for lane_fid, nbytes in lane_jobs:
            if strategy == "tarn":
                seg_paths = [
                    fat_tree_path(k, src, dst, salt=f"{lane_fid}:rot{s}")
                    for s in range(len(_split(nbytes, TARN_SEGMENTS)))
                ]
            else:
                seg_paths = [fat_tree_path(k, src, dst, salt=lane_fid)]
            if eng.fidelity_for(lane_fid, seg_paths[0]) == "packet":
                packet_jobs.append((lane_fid, src, dst, seg_paths, nbytes))
            elif len(seg_paths) == 1:
                fluid_handles.append(
                    eng.start_flow(seg_paths[0], nbytes, flow_id=lane_fid)
                )
            else:
                fluid_rotors.append((lane_fid, seg_paths, nbytes))
    result.lanes = (
        eng.live_flows + len(fluid_rotors) + len(packet_jobs)
    )
    result.fluid_flows = eng.live_flows + len(fluid_rotors)
    result.packet_flows = len(packet_jobs)

    # When each rotating fluid lane / packet transfer finished (sim-s).
    rotor_ends: list[float] = []
    xfer_ends: list[float] = []

    # Fluid rotation lanes: each segment is its own fluid flow over a
    # freshly salted path, started when the previous segment drains.
    def rotate_fluid(fid: str, seg_paths: list[list[str]], nbytes: int):
        t0 = net.sim.now
        done = 0
        for s, (path, b) in enumerate(
            zip(seg_paths, _split(nbytes, len(seg_paths)))
        ):
            fc = eng.start_flow(path, b, flow_id=f"{fid}/r{s}")
            if s:
                result.rotations += 1
            while not fc.finished:
                yield net.sim.timeout(epoch_s)
            done += b
        elapsed = net.sim.now - t0
        result.fluid_goodput_bps[fid] = (
            done * 8 / elapsed if elapsed > 0 else 0.0
        )
        rotor_ends.append(net.sim.now)

    for fid, seg_paths, nbytes in fluid_rotors:
        net.sim.process(
            rotate_fluid(fid, seg_paths, nbytes), name=f"hyb.rotor.{fid}"
        )

    # Packet subset: static rules + one TCP transfer per segment, each
    # holding a peer reservation at the fidelity boundary.  Single-segment
    # lanes get their rules at setup (dedup by pair+path); rotating lanes
    # install/remove per segment inside the transfer, like a live MC.
    wired: set[tuple] = set()
    cookies = iter(range(1, 1 << 30))
    for fid, src, dst, seg_paths, nbytes in packet_jobs:
        if len(seg_paths) > 1:
            continue
        key = (src, dst, tuple(seg_paths[0]))
        if key not in wired:
            wired.add(key)
            result.rules_installed += _install_path_rules(net, seg_paths[0])

    def transfer(fid: str, src: str, dst: str, seg_paths: list[list[str]],
                 nbytes: int, port: int):
        rotating = len(seg_paths) > 1
        t0 = net.sim.now
        done = 0
        for s, (path, b) in enumerate(
            zip(seg_paths, _split(nbytes, len(seg_paths)))
        ):
            cookie = 0
            if rotating:
                cookie = next(cookies)
                result.rules_installed += _install_path_rules(
                    net, path, cookie=cookie
                )
                if s:
                    result.rotations += 1
            server_stack = TcpStack(net.host(dst))
            listener = server_stack.listen(port + s)
            holder: dict = {}

            def acceptor():
                holder["server"] = yield listener.accept()

            net.sim.process(acceptor(), name=f"hyb.accept.{fid}.{s}")
            client_stack = TcpStack(net.host(src))
            conn = yield client_stack.connect(net.host(dst).ip, port + s)
            while "server" not in holder:
                yield net.sim.timeout(0.0001)
            pid = eng.peer_flow(path, flow_id=f"{fid}/r{s}" if rotating else fid)
            r = yield from measure_transfer(
                net.sim, as_duplex(conn), as_duplex(holder["server"]), b
            )
            eng.end_peer(pid)
            if rotating:
                _remove_path_rules(net, path, cookie)
            done += b
            if not rotating:
                result.packet_goodput_bps[fid] = r.goodput_bps
        if rotating:
            elapsed = net.sim.now - t0
            result.packet_goodput_bps[fid] = (
                done * 8 / elapsed if elapsed > 0 else 0.0
            )
        xfer_ends.append(net.sim.now)

    for j, (fid, src, dst, seg_paths, nbytes) in enumerate(packet_jobs):
        net.sim.process(
            transfer(fid, src, dst, seg_paths, nbytes, 20000 + j * 8),
            name=f"hyb.xfer.{fid}",
        )

    if prof is not None:
        prof.exit()  # scenario.setup
        prof.hook(net)  # also hooks the engine via net.hybrid

    net.run(until=time_limit_s)
    # The clock runs on to ``time_limit_s`` once the heap drains: report
    # when the last lane finished, unless some lane never did.
    ends = [fc.finished_s for fc in fluid_handles] + rotor_ends + xfer_ends
    if None in ends or len(ends) < result.lanes:
        result.sim_time_s = net.sim.now
    else:
        result.sim_time_s = max(ends, default=0.0)
    result.epochs = eng.epochs
    result.resolves = eng.solver.resolves
    result.bytes_advanced = eng.bytes_advanced
    result.debited_bytes = eng.debited_bytes
    result.fluid_finished = (
        len(rotor_ends) if fluid_rotors else eng.finished_flows
    )
    result.packet_finished = len(xfer_ends)
    for fc in fluid_handles:
        if fc.finished:
            result.fluid_goodput_bps[fc.flow_id] = fc.goodput_bps()
    if prof is not None:
        result.profile = prof.report().to_doc()
    return result
