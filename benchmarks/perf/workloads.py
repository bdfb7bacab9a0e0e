"""The four benchmark workloads, built from the exported layer APIs only.

Each workload is a function ``fn(rep, seed, scale)`` that builds fresh
deployments, drives them, checks the outputs and leaves its simulated
results on the :class:`Rep`.  The seed decides host pairs, payload bytes,
the ``Network`` seed and the ``FaultSchedule`` seed; the simulator only
ever sees those generated inputs.  ``scale`` divides the sizes (1 for a
comparable run, 10 under ``--smoke``).

Why these four, and which layer each one loads, is in README.md.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
import traceback
import zlib
from contextlib import contextmanager

from repro.core import MicDatagramServer, MicError, deploy_mic
from repro.faults import FaultSchedule
from repro.net import FlowEntry, HybridEngine, Match, Network, Output, fat_tree
from repro.obs import FlightRecorder
from repro.tor import TorClient, TorDirectory, TorRelay
from repro.transport import TcpStack
from repro.workloads import as_duplex

CHUNK = 64 * 1024


class Rep:
    """One repetition's bookkeeping: phase spans, operations, simulated outputs.

    Operations are declared up front per leg (:meth:`leg`) and passed one by
    one (:meth:`ok`), so an exception half-way leaves the rest counted failed.
    """

    def __init__(self, workload: str, rep_id: int, trace: bool):
        self.workload = workload
        self.rep_id = rep_id
        self.trace = trace
        self.spans: list[dict] = []
        self._open: list[str] = []
        self.attempted = 0
        self.passed = 0
        self.notes: list[str] = []
        #: context a reader needs beside the numbers (not failures)
        self.info: list[str] = []
        #: simulated results by metric name (exact at a fixed seed)
        self.sim: dict[str, float] = {}
        #: every simulated output, in order; hashed into ``sim_digest``
        self.outputs: list = []
        #: public counters summed over the rep's deployments (traced runs)
        self.counters: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        """Time one harness phase on the host clock."""
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append({
                "name": name, "start": start, "end": time.perf_counter(),
                "parent": parent, "workload": self.workload, "rep": self.rep_id,
            })

    def total(self, name: str) -> float:
        """Host seconds spent in every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    @contextmanager
    def leg(self, name: str, ops: int):
        """Run one leg that attempts ``ops`` operations; never raises."""
        self.attempted += ops
        try:
            with self.span("leg." + name):
                yield
        except Exception:
            last = traceback.format_exc().strip().splitlines()[-1]
            self.note(f"{name}: raised {last}")

    def ok(self, n: int = 1) -> None:
        """Count ``n`` operations as having succeeded."""
        self.passed += n

    def check(self, cond: bool, what: str) -> None:
        """One declared operation that is a pass/fail check."""
        if cond:
            self.passed += 1
        else:
            self.note(f"check failed: {what}")

    def note(self, text: str) -> None:
        """Record (and later print) one failure."""
        self.notes.append(f"[{self.workload} rep {self.rep_id}] {text}")

    def out(self, key: str, value) -> None:
        """Record one simulated output for the digest."""
        self.outputs.append((key, value))

    def add(self, counter: str, value: float) -> None:
        """Accumulate one public counter."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    @property
    def failed(self) -> int:
        """Operations declared but not passed."""
        return self.attempted - self.passed

    @property
    def digest(self) -> str:
        """SHA-256 over every simulated output of the rep."""
        return hashlib.sha256(repr(self.outputs).encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def _scaled(n: int, scale: int) -> int:
    return max(1, n // scale)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _collect(rep: Rep, net: Network, ctrl=None, mic=None, relays=(), eng=None,
             obs=None, journey=None) -> None:
    """Read the layers' public counters off one finished deployment."""
    if not rep.trace:
        return
    for sw in net.switches():
        rep.add("net.flowtable.cache_hits", sw.table.cache_hits)
        rep.add("net.flowtable.cache_misses", sw.table.cache_misses)
        rep.add("net.switch.packets_forwarded", sw.packets_forwarded)
        rep.add("net.switch.packets_punted", sw.packets_punted)
        rep.add("net.switch.packets_dropped_dead", sw.packets_dropped_dead)
    for link in net.links:
        for chan in (link.forward, link.reverse):
            rep.add("net.link.packets", chan.stats.packets)
            rep.add("net.link.drops", chan.stats.drops)
    for host in net.hosts():
        rep.add("net.host.bytes_received", host.bytes_received)
    if ctrl is not None:
        for name in ("flow_mods_sent", "flow_mods_retried", "flow_mods_lost",
                     "packet_in_count"):
            rep.add("sdn.controller." + name, getattr(ctrl, name))
    if mic is not None:
        for name in ("requests_served", "repairs_completed", "repairs_parked",
                     "resyncs_completed"):
            rep.add("core.controller." + name, getattr(mic, name))
        rep.add("core.controller.cpu_busy_sim_s", mic.cpu_busy_s)
        shards = getattr(mic, "shards", None)
        if shards and len(shards) > 1:
            served = [s.requests_served for s in shards]
            rep.add("controlplane.remote_installs", mic.remote_installs)
            rep.counters["controlplane.request_skew"] = (
                max(served) / statistics.fmean(served) if any(served) else 0.0
            )
    for relay in relays:
        rep.add("tor.cells_relayed", relay.cells_relayed)
        rep.add("tor.circuits_created", relay.circuits_created)
    if eng is not None:
        rep.add("net.fluid.resolves", eng.solver.resolves)
        rep.add("net.hybrid.epochs", eng.epochs)
        rep.add("net.hybrid.bytes_advanced", eng.bytes_advanced)
        rep.add("net.hybrid.debited_bytes", eng.debited_bytes)
    if journey is not None:
        rep.add("obs.journey_events", journey.events_recorded)
    if obs is not None:
        rep.add("obs.spans", len(obs.spans))


def _note_rules_peak(rep: Rep, mic) -> None:
    if rep.trace:
        now = sum(mic.rule_footprint().values())
        rep.counters["core.controller.rules_peak"] = max(
            rep.counters.get("core.controller.rules_peak", 0), now
        )


def _transfer(sim, tx, rx, nbytes: int, block: bytes, done: list):
    """Process generator: pump ``nbytes`` tx -> rx in CHUNK pieces.

    Appends ``(goodput_bps, byte_exact)`` to ``done``; the receiver hashes
    what arrived against what the sender hashed going out.
    """
    want, got = hashlib.sha256(), hashlib.sha256()

    def sender():
        sent = 0
        while sent < nbytes:
            piece = block[: min(CHUNK, nbytes - sent)]
            want.update(piece)
            yield from tx.send(piece)
            sent += len(piece)

    def receiver():
        seen = 0
        while seen < nbytes:
            data = yield from rx.recv_exactly(min(CHUNK, nbytes - seen))
            got.update(data)
            seen += len(data)

    start = sim.now
    send_proc = sim.process(sender(), name="perf.sender")
    yield sim.process(receiver(), name="perf.receiver")
    yield send_proc
    done.append((nbytes * 8.0 / (sim.now - start), want.digest() == got.digest()))


def _run_transfers(rep: Rep, leg: str, sim, run, sessions, nbytes, block) -> list[float]:
    """Drive one transfer per session to completion; returns the goodputs."""
    done: list = []
    for tx, rx in sessions:
        sim.process(_transfer(sim, as_duplex(tx), as_duplex(rx), nbytes, block, done),
                    name="perf.transfer")
    with rep.span("measure"):
        run()
    goodputs = []
    for goodput, exact in done:
        goodputs.append(goodput)
        if exact:
            rep.ok()
        else:
            rep.note(f"{leg}: transfer not byte-exact")
    rep.out(leg, sorted(goodputs))
    return goodputs


# ---------------------------------------------------------------------------
# packet_bulk
# ---------------------------------------------------------------------------
def _tcp_session(net: Network, src: str, dst: str, port: int, sessions: list):
    listener = TcpStack(net.host(dst)).listen(port)
    accepted = listener.accept()
    conn = yield TcpStack(net.host(src)).connect(net.host(dst).ip, port)
    sessions.append((conn, (yield accepted)))


def _mic_session(dep, src: str, dst: str, port: int, sessions: list, endpoints: list,
                 **channel):
    server = dep.server(dst, port)
    accepted = server.accept()
    endpoint = dep.endpoint(src)
    stream = yield from endpoint.connect(dst, service_port=port, **channel)
    # The first chunk on each m-flow connection is what lets the server group
    # them into a stream: one byte brings the responder side into being.
    stream.send(b"\x00")
    server_stream = yield accepted
    yield from server_stream.recv_exactly(1)
    sessions.append((stream, server_stream))
    endpoints.append((endpoint, stream))


def _tor_session(dep, directory, src: str, dst: str, port: int, sessions: list):
    listener = TcpStack(dep.net.host(dst)).listen(port)
    accepted = listener.accept()
    client = TorClient(dep.net.host(src), directory)
    stream = yield from client.connect(dep.net.host(dst).ip, port, length=3)
    sessions.append((stream, (yield accepted)))


def packet_bulk(rep: Rep, seed: int, scale: int) -> None:
    """Closed-loop bulk transfers: TCP, MIC, hardened MIC and Tor legs."""
    rng = random.Random(seed)
    # One host per pod, joined in a ring pod -> next pod: every flow's data
    # goes up in its own pod and down in the next, so no two flows share a
    # link direction whatever ECMP or the MC's walk choice does, and the TCP
    # and MIC legs compare like for like.
    pods = rng.sample(range(4), 4)
    picked = [f"h{pod * 4 + rng.randrange(4) + 1}" for pod in pods]
    ring = [(picked[i], picked[(i + 1) % 4]) for i in range(4)]
    spare = [f"h{i}" for i in range(1, 17) if f"h{i}" not in picked]
    relay_hosts = rng.sample(spare, 7)
    block = rng.randbytes(CHUNK)
    mean = {}

    def deploy():
        with rep.span("setup"):
            return deploy_mic(fat_tree(4), seed=seed, pre_wire=True)

    def establish(dep, openers):
        sessions: list = []
        with rep.span("establish"):
            for i, opener in enumerate(openers):
                dep.sim.process(opener(dep, 5000 + i, sessions), name="perf.open")
            dep.run()
        if len(sessions) != len(openers):
            raise RuntimeError(f"{len(sessions)}/{len(openers)} sessions opened")
        return sessions

    def mic_leg(name, pairs, nbytes, channels):
        with rep.leg(name, ops=len(pairs) + 1):
            dep = deploy()
            endpoints: list = []
            sessions = establish(dep, [
                lambda d, port, out, a=a, b=b, kw=kw: _mic_session(
                    d, a, b, port, out, endpoints, **kw)
                for (a, b), kw in zip(pairs, channels)
            ])
            mean[name] = statistics.fmean(_run_transfers(
                rep, name, dep.sim, dep.run, sessions, nbytes, block))
            with rep.span("score"):
                report = dep.mic.verify()
                rep.out(name + ".verify", (len(report.errors), len(report.warnings)))
                rep.check(not report.errors,
                          f"{name}: verifier found {len(report.errors)} error(s)")
            with rep.span("teardown"):
                for endpoint, stream in endpoints:
                    dep.sim.process(endpoint.shutdown(stream), name="perf.close")
                dep.run()
            _collect(rep, dep.net, dep.ctrl, dep.mic)

    with rep.leg("tcp", ops=4):
        dep = deploy()
        sessions = establish(dep, [
            lambda d, port, out, a=a, b=b: _tcp_session(d.net, a, b, port, out)
            for a, b in ring
        ])
        mean["tcp"] = statistics.fmean(_run_transfers(
            rep, "tcp", dep.sim, dep.run, sessions, _scaled(500_000, scale), block))
        _collect(rep, dep.net, dep.ctrl, dep.mic)

    mic_leg("mic", ring, _scaled(500_000, scale), [{"n_mns": 3}] * 4)
    mic_leg("mic_hardened", [ring[0], ring[2]], _scaled(300_000, scale),
            [{"n_mns": 3, "n_flows": 2}, {"n_mns": 3, "decoys": 1}])

    with rep.leg("tor", ops=2):
        dep = deploy()
        with rep.span("setup"):
            directory = TorDirectory()
            relays = [TorRelay(dep.net.host(h), directory) for h in relay_hosts]
        sessions = establish(dep, [
            lambda d, port, out, a=a, b=b: _tor_session(d, directory, a, b, port, out)
            for a, b in (ring[0], ring[2])
        ])
        mean["tor"] = statistics.fmean(_run_transfers(
            rep, "tor", dep.sim, dep.run, sessions, _scaled(100_000, scale), block))
        _collect(rep, dep.net, dep.ctrl, dep.mic, relays=relays)

    # The paper's shape (Sec VI, Fig 9): MIC ~ TCP, Tor far below both.
    rep.attempted += 2
    if all(leg in mean for leg in ("tcp", "mic", "tor")):
        rep.sim["sim_goodput_bps"] = mean["mic"]
        rep.sim["sim_mic_tcp_goodput_ratio"] = mean["mic"] / mean["tcp"]
        rep.check(mean["mic"] >= 0.9 * mean["tcp"], "mic goodput >= 0.9 x tcp")
        rep.check(mean["tor"] < 0.35 * mean["tcp"], "tor goodput < 0.35 x tcp")
    else:
        rep.note("shape checks skipped: a leg did not finish")


# ---------------------------------------------------------------------------
# setup_churn
# ---------------------------------------------------------------------------
def setup_churn(rep: Rep, seed: int, scale: int) -> None:
    """Closed-loop channel connect/shutdown churn on fat_tree(8), 1 and 4 shards."""
    rng = random.Random(seed)
    k, clients = 8, 16
    half = k // 2
    # 16 initiators on distinct edge switches (so shard ownership spreads),
    # each with a responder in another pod (so every walk crosses the core).
    edges = rng.sample(range(k * half), clients)
    initiators = [f"h{edge * half + rng.randrange(half) + 1}" for edge in edges]
    taken = set(initiators)
    pairs = []
    for i, (edge, a) in enumerate(zip(edges, initiators)):
        pod = edge // half
        while True:
            b = f"h{rng.randrange(k * half * half) + 1}"
            if b not in taken and (int(b[1:]) - 1) // (half * half) != pod:
                break
        taken.add(b)
        pairs.append((a, b, 7000 + i))
    rate = {}

    for shards, rounds in ((1, _scaled(8, scale)), (4, _scaled(4, scale))):
        name = f"shards{shards}"
        with rep.leg(name, ops=clients * rounds + 2):
            with rep.span("setup"):
                dep = deploy_mic(
                    fat_tree(k), seed=seed, shards=shards,
                    mic_kwargs={"cpu_model": "serialized", "flowmod_cpu_s": 200e-6,
                                "mn_shift": 1},
                )
            sim = dep.sim
            latencies: list[float] = []
            finished: list[float] = []

            def client(idx: int, a: str, b: str, port: int):
                endpoint = dep.endpoint(a)
                for _ in range(rounds):
                    start = sim.now
                    try:
                        sock = yield from endpoint.connect_datagram(
                            b, service_port=port, n_mns=3, decoys=1)
                    except MicError as exc:
                        rep.note(f"{name}: setup refused: {exc}")
                        continue
                    latencies.append(sim.now - start)
                    if idx == 0:
                        _note_rules_peak(rep, dep.mic)
                    yield from endpoint.shutdown(sock)
                    rep.ok()
                finished.append(sim.now)

            with rep.span("measure"):
                for idx, pair in enumerate(pairs):
                    sim.process(client(idx, *pair), name=f"perf.client{idx}")
                while len(finished) < clients and sim.now < 600.0:
                    dep.run_for(0.25)
            with rep.span("score"):
                rep.check(dep.mic.live_channels == 0,
                          f"{name}: {dep.mic.live_channels} channel(s) still live")
                footprint = sum(dep.mic.rule_footprint().values())
                rep.check(footprint == 0, f"{name}: {footprint} MIC rule(s) left behind")
                rep.out(name, (sorted(latencies), finished))
                if len(finished) == clients and latencies:
                    rate[name] = len(latencies) / max(finished)
                    if shards == 1:
                        rep.sim["sim_setup_p50_s"] = _quantile(latencies, 0.50)
                        rep.sim["sim_setup_p95_s"] = _quantile(latencies, 0.95)
                        rep.sim["sim_setups_per_s"] = rate[name]
            _collect(rep, dep.net, dep.ctrl, dep.mic)
    if len(rate) == 2:
        rep.sim["sim_shard_speedup"] = rate["shards4"] / rate["shards1"]


# ---------------------------------------------------------------------------
# hybrid_fluid
# ---------------------------------------------------------------------------
def _ecmp_pick(n: int, *parts: object) -> int:
    """Deterministic, seed-free choice in [0, n): a hash of the identifiers."""
    return zlib.crc32(":".join(str(p) for p in parts).encode()) % n


def fat_tree_path(k: int, src: str, dst: str, salt: object) -> list[str]:
    """Arithmetic hash-ECMP shortest path between two hosts of ``fat_tree(k)``.

    Follows the generator's naming: hosts ``h1..`` numbered pod by pod, edge
    switches ``p{pod}e{i}``, aggregation ``p{pod}a{i}``, cores ``c1..``.
    """
    half = k // 2
    per_pod = half * half

    def locate(host: str) -> tuple[int, int]:
        idx = int(host[1:]) - 1
        return idx // per_pod, (idx % per_pod) // half

    (spod, sedge), (dpod, dedge) = locate(src), locate(dst)
    up, down = f"p{spod}e{sedge}", f"p{dpod}e{dedge}"
    if (spod, sedge) == (dpod, dedge):
        return [src, up, dst]
    agg = _ecmp_pick(half, src, dst, salt, "agg")
    if spod == dpod:
        return [src, up, f"p{spod}a{agg}", down, dst]
    core = agg * half + _ecmp_pick(half, src, dst, salt, "core") + 1
    return [src, up, f"p{spod}a{agg}", f"c{core}", f"p{dpod}a{agg}", down, dst]


def install_static_path(net: Network, path: list[str]) -> None:
    """Static forward and reverse unicast rules along ``path``."""
    src_ip, dst_ip = net.host(path[0]).ip, net.host(path[-1]).ip
    for hops, match in (
        (path, Match(ip_src=src_ip, ip_dst=dst_ip)),
        (path[::-1], Match(ip_src=dst_ip, ip_dst=src_ip)),
    ):
        for here, nxt in zip(hops[1:-1], hops[2:]):
            net.switch(here).table.install(
                FlowEntry(match, [Output(net.port(here, nxt))], priority=10))


def hybrid_fluid(rep: Rep, seed: int, scale: int) -> None:
    """Thousands of concurrent 1 MB transfers on fat_tree(16), mostly fluid."""
    rng = random.Random(seed)
    k = 16 if scale == 1 else 8
    flows, nbytes, limit_s = _scaled(4000, scale), 1_000_000, 60.0
    block = rng.randbytes(CHUNK)

    with rep.leg("hybrid", ops=flows):
        with rep.span("setup"):
            topo = fat_tree(k)
            net = Network(topo, seed=seed)
            eng = HybridEngine(net, epoch_s=0.010, sample_rate=0.001)
            hosts = topo.hosts()
            fluid, packet = [], []
            for i in range(flows):
                src, dst = rng.sample(hosts, 2)
                fid = f"ch-{i}"
                path = fat_tree_path(k, src, dst, fid)
                if eng.fidelity_for(fid, path) == "packet":
                    packet.append((fid, path))
                    install_static_path(net, path)
                else:
                    fluid.append(eng.start_flow(path, nbytes, flow_id=fid))
            done: list = []

            def packet_flow(fid: str, path: list[str], port: int):
                sessions: list = []
                yield from _tcp_session(net, path[0], path[-1], port, sessions)
                peer = eng.peer_flow(path, flow_id=fid)
                tx, rx = sessions[0]
                yield from _transfer(net.sim, as_duplex(tx), as_duplex(rx),
                                     nbytes, block, done)
                eng.end_peer(peer)

            for j, (fid, path) in enumerate(packet):
                net.sim.process(packet_flow(fid, path, 20000 + j), name="perf.packet")
        with rep.span("measure"):
            net.run(until=limit_s)
        with rep.span("score"):
            goodputs = [fc.goodput_bps() for fc in fluid if fc.finished]
            rep.ok(len(goodputs))
            for goodput, exact in done:
                goodputs.append(goodput)
                if exact:
                    rep.ok()
                else:
                    rep.note("hybrid: packet-level transfer not byte-exact")
            if len(goodputs) < flows:
                rep.note(f"hybrid: {flows - len(goodputs)} flow(s) unfinished "
                         f"at {limit_s:g} simulated s")
            rep.out("hybrid", (sorted(goodputs), len(packet), eng.epochs))
            if goodputs:
                rep.sim["sim_goodput_bps"] = statistics.fmean(goodputs)
        _collect(rep, net, eng=eng)


# ---------------------------------------------------------------------------
# chaos_observed
# ---------------------------------------------------------------------------
#: open-loop probe period per channel, simulated seconds (20 probes/s)
PROBE_PERIOD_S = 0.050
PROBE_HORIZON_S = 15.0
#: a probe due within this long after a data-plane fault heals is still
#: excused if lost: detection (2 ms) plus repair or re-sync under 20%
#: flow-mod loss has to finish first
FAULT_GRACE_S = 0.25


def chaos_observed(rep: Rep, seed: int, scale: int) -> None:
    """Open-loop probes over 8 datagram channels through a fixed fault plan,
    with every observability hook on."""
    channels = 8
    horizon_s = PROBE_HORIZON_S if scale == 1 else 12.5
    period_s = PROBE_PERIOD_S * (1 if scale == 1 else 4)
    per_channel = int(round(horizon_s / period_s))

    with rep.leg("chaos", ops=channels * per_channel + 2):
        with rep.span("setup"):
            dep = deploy_mic(
                fat_tree(4), seed=seed, observe=True, journey=True,
                journey_kwargs={"flight": FlightRecorder(), "sample_rate": 1.0},
                controller_kwargs={"detection_latency_s": 0.002},
            )
        sim = dep.sim
        pairs = [(f"h{i}", f"h{17 - i}", 7000 + i) for i in range(1, channels + 1)]
        socks: dict[int, object] = {}

        def serve(server):
            while True:
                datagram = yield server.recv()
                server.reply(datagram, datagram.data)

        def establish(idx: int, a: str, b: str, port: int):
            # No decoys here: with decoys=1 a probe that reaches a repaired
            # walk before its group entry does ends the run with
            # TableMissError on about one seed in six (README, Known limits).
            # packet_bulk and setup_churn keep the group path covered.
            socks[idx] = yield from dep.endpoint(a).connect_datagram(
                b, service_port=port, n_mns=3, decoys=0)

        with rep.span("establish"):
            for idx, (a, b, port) in enumerate(pairs):
                server = MicDatagramServer(dep.net.host(b), port)
                sim.process(serve(server), name=f"perf.server{idx}")
                sim.process(establish(idx, a, b, port), name=f"perf.establish{idx}")
            dep.run_for(5.0)
        if len(socks) != channels:
            raise RuntimeError(f"{len(socks)}/{channels} channels established")

        # The fault plan is read off the established walks so every fault
        # hits live state; times are offsets from the first probe.
        t0 = sim.now
        plans = [dep.mic.channels[socks[i].channel_id].flows[0] for i in range(3)]
        first_mn = plans[2].walk[plans[2].mn_positions[0]]
        mid = len(plans[0].walk) // 2
        outages = [(1.0, 2.0), (4.0, 3.0), (8.0, 1.5)]
        schedule = FaultSchedule(seed=seed)
        schedule.link_flap(plans[0].walk[mid - 1], plans[0].walk[mid],
                           at_s=t0 + outages[0][0], down_for_s=outages[0][1])
        schedule.link_flap(plans[1].walk[-2], plans[1].walk[-1],
                           at_s=t0 + outages[1][0], down_for_s=outages[1][1])
        schedule.switch_crash(first_mn, at_s=t0 + outages[2][0],
                              down_for_s=outages[2][1])
        schedule.control_partition(first_mn, at_s=t0 + 10.0, duration_s=1.0)
        schedule.rule_install_loss(at_s=t0 + 0.5, duration_s=12.0, loss_prob=0.2,
                                   delay_prob=0.2, extra_delay_s=0.002)
        schedule.attach(dep.net, dep.ctrl)

        answered: list[dict[int, float]] = [{} for _ in range(channels)]

        def pump(idx: int):
            # Open loop: probe n is due at t0 + n * period whatever happened
            # to the ones before it.  In simulated time the generator wakes
            # exactly on schedule, so it is never late.
            sock = socks[idx]
            for seq in range(per_channel):
                due = t0 + seq * period_s
                if sim.now < due:
                    yield sim.timeout(due - sim.now)
                sock.send(seq.to_bytes(4, "big"))

        def drain(idx: int):
            sock = socks[idx]
            while True:
                datagram = yield sock.recv()
                seq = int.from_bytes(datagram.data[:4], "big")
                answered[idx][seq] = sim.now - (t0 + seq * period_s)

        with rep.span("measure"):
            for idx in range(channels):
                sim.process(pump(idx), name=f"perf.pump{idx}")
                sim.process(drain(idx), name=f"perf.drain{idx}")
            dep.run_for(horizon_s + 1.0)
            deadline = sim.now + 30.0
            while ((dep.mic.parked_flows or dep.mic.repairs_in_flight)
                   and sim.now < deadline):
                dep.run_for(0.5)
            dep.run_for(2.0)

        with rep.span("score"):
            def excused(seq: int) -> bool:
                due = seq * period_s
                return any(at <= due <= at + down + FAULT_GRACE_S
                           for at, down in outages)

            lost_under_fault = lost_unexcused = 0
            for idx in range(channels):
                for seq in range(per_channel):
                    if seq in answered[idx]:
                        rep.ok()
                    elif excused(seq):
                        lost_under_fault += 1
                        rep.ok()
                    else:
                        lost_unexcused += 1
            if lost_unexcused:
                rep.note(f"chaos: {lost_unexcused} probe(s) unanswered outside "
                         "every data-plane fault window")
            rep.check(dep.mic.parked_flows == 0,
                      f"chaos: {dep.mic.parked_flows} flow(s) still parked")
            report = dep.mic.verify()
            rep.check(not report.errors,
                      f"chaos: verifier found {len(report.errors)} error(s)")
            rtts = [rtt for per in answered for rtt in per.values()]
            repairs = [r.duration_s for r in dep.obs.spans.by_name("mic.repair")]
            rep.out("chaos", (sorted(rtts), lost_under_fault, lost_unexcused,
                              sorted(repairs), len(report.errors),
                              len(report.warnings)))
            sent = channels * per_channel
            rep.sim["sim_probe_loss_ratio"] = (sent - len(rtts)) / sent
            if rtts:
                rep.sim["sim_rtt_p50_s"] = _quantile(rtts, 0.50)
                rep.sim["sim_rtt_p99_s"] = _quantile(rtts, 0.99)
            if repairs:
                rep.sim["sim_repair_max_s"] = max(repairs)
            rep.info.append(
                f"open loop, {1 / period_s:g} probes/s/channel: in simulated time the "
                "generator wakes exactly when each probe is due, so it is never late")
            rep.info.append(
                f"{len(repairs)} mic.repair span(s) behind sim_repair_max_s; "
                f"{lost_under_fault} probe(s) lost inside a data-plane fault window; "
                f"verifier warnings: {len(report.warnings)}")
        _collect(rep, dep.net, dep.ctrl, dep.mic, obs=dep.obs, journey=dep.journey)


WORKLOADS = {
    "packet_bulk": packet_bulk,
    "setup_churn": setup_churn,
    "hybrid_fluid": hybrid_fluid,
    "chaos_observed": chaos_observed,
}
