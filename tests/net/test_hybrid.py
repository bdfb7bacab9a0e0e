"""Hybrid engine mechanics: hand-off, quiesce, pins, conservation.

The cross-mode fidelity suite (fluid vs packet within tolerance) lives in
``test_hybrid_fidelity.py``; this file covers the engine's contracted
mechanics on small fabrics.
"""

import ast
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bench import Testbed, open_tcp, run_process
from repro.faults import FaultSchedule, LinkFlap, SwitchCrash
from repro.net import (
    HANDOFF_CONTRACT,
    PACKET_PINS,
    WIRE_EFFICIENCY,
    FluidSolver,
    HybridEngine,
    Network,
    fat_tree,
    linear,
)
from repro.obs import JourneyRecorder
from repro.sim import SimulationError
from repro.workloads.iperf import measure_transfer

GBPS = 1e9


def test_attach_registers_every_channel_and_rejects_double_attach():
    net = Network(linear(2))
    eng = HybridEngine(net)
    assert net.hybrid is eng
    assert len(eng._channels) == 2 * len(net.links)
    with pytest.raises(SimulationError):
        HybridEngine(net)


def test_paths_resolve_to_channel_rows_without_asking_the_network():
    net = Network(fat_tree(4))
    eng = HybridEngine(net)
    hops = {(a, b): row for a, nxt in eng._next_row.items() for b, row in nxt.items()}
    for (a, b), row in hops.items():
        ch = eng._channels[row]
        assert (ch.src.name, ch.dst.name) == (a, b)
        assert eng.solver._link_row[ch.name] == row  # one row space
    assert hops.keys() == net.port_map.keys()
    assert len(hops) == len(eng._channels)

    def no_lookup(a, b):
        raise AssertionError("start_flow looked a hop up per call")

    net.link_between = no_lookup
    fc = eng.start_flow(["h1", "p0e0", "p0a0", "p0e1", "h3"], 10_000)
    assert [eng._channels[row].name for row in eng._rows_on(fc.path)] == list(fc.links)
    assert [ch.split("[")[0] for ch in fc.links] == ["h1", "p0e0", "p0a0", "p0e1"]


def _solver_call_sites() -> dict[str, set[tuple[str, str]]]:
    """``{callee: {(module under src/repro, Class.function)}}`` for every call
    that builds a ``FluidSolver`` or registers or removes one of its flows."""
    callees = ("FluidSolver", "add_flow", "add_flow_rows", "remove_flow", "remove_flows")
    sites: dict[str, set[tuple[str, str]]] = {name: set() for name in callees}
    src = pathlib.Path(repro.__file__).parent

    def visit(node: ast.AST, path: str, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in sites:
                sites[name].add((path, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for file in sorted(src.rglob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")), file.relative_to(src).as_posix(), ())
    return sites


def test_one_solver_per_engine_and_one_registration_path():
    sites = _solver_call_sites()
    assert sites["FluidSolver"] == {("net/hybrid.py", "HybridEngine.__init__")}
    # names resolve to rows, then every flow enters through add_flow_rows
    assert sites["add_flow"] == set()
    assert sites["add_flow_rows"] == {
        ("net/fluid.py", "FluidSolver.add_flow"),
        ("net/hybrid.py", "HybridEngine.start_flow"),
        ("net/hybrid.py", "HybridEngine.peer_flow"),
    }
    assert sites["remove_flow"] == {("net/hybrid.py", "HybridEngine.end_peer")}
    assert sites["remove_flows"] == {
        ("net/fluid.py", "FluidSolver.remove_flow"),
        ("net/hybrid.py", "HybridEngine._finish_flows"),
    }


def test_each_flow_registers_once_with_the_engines_one_solver(monkeypatch):
    built, log = [], []
    init, add_rows, remove = (
        FluidSolver.__init__, FluidSolver.add_flow_rows, FluidSolver.remove_flows
    )

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def logging_add(self, flow_id, *args, **kwargs):
        log.append(("add", flow_id))
        add_rows(self, flow_id, *args, **kwargs)

    def logging_remove(self, flow_ids):
        flow_ids = list(flow_ids)
        log.extend(("remove", fid) for fid in flow_ids)
        remove(self, flow_ids)

    monkeypatch.setattr(FluidSolver, "__init__", counting_init)
    monkeypatch.setattr(FluidSolver, "add_flow_rows", logging_add)
    monkeypatch.setattr(FluidSolver, "remove_flows", logging_remove)
    net = Network(fat_tree(4))
    eng = HybridEngine(net, epoch_s=0.01)
    assert built == [eng.solver]
    assert [v for v in vars(eng).values() if isinstance(v, FluidSolver)] == built
    assert len(eng.solver._link_row) == len(eng._channels)
    path = ["h1", "p0e0", "p0a0", "p0e1", "h3"]
    fc = eng.start_flow(path, 10_000)
    pid = eng.peer_flow(path)
    assert log == [("add", fc.flow_id), ("add", pid)]
    eng.end_peer(pid)
    assert log[2:] == [("remove", pid)]
    net.run()
    assert fc.finished and log[3:] == [("remove", fc.flow_id)]
    assert len(eng.solver) == 0 and built == [eng.solver]


def test_engine_validates_parameters():
    with pytest.raises(SimulationError):
        HybridEngine(Network(linear(2)), epoch_s=0.0)
    with pytest.raises(SimulationError):
        HybridEngine(Network(linear(2)), sample_rate=1.5)


@pytest.mark.parametrize("cap", [-5.0, float("nan")])
def test_negative_or_nan_rate_cap_is_refused(cap):
    net = Network(linear(2))
    eng = HybridEngine(net, epoch_s=0.01)
    path = ["h1", "s1", "s2", "h2"]
    with pytest.raises(ValueError):
        eng.start_flow(path, 10_000, rate_cap_bps=cap)
    with pytest.raises(ValueError):
        eng.peer_flow(path, rate_cap_bps=cap)
    assert (eng.live_flows, eng.live_peers, len(eng.solver)) == (0, 0, 0)


@settings(max_examples=30, deadline=None)
@given(
    param=st.sampled_from(["payload_bytes", "rate_cap_bps"]),
    value=st.sampled_from([0, -1, math.nan, math.inf]),
)
def test_a_bad_number_works_or_is_refused_before_anything_is_booked(param, value):
    """A nan or infinite payload and a zero cap used to be accepted: the
    flow never finished and the ticker ran on.  Each is refused before an
    id is drawn or a row is touched; what gets through (an infinite cap is
    "uncapped") finishes."""
    net = Network(linear(2))
    eng = HybridEngine(net, epoch_s=0.01)
    kwargs = {"payload_bytes": 10_000, param: value}
    try:
        fc = eng.start_flow(["h1", "s1", "s2", "h2"], **kwargs)
    except ValueError:
        assert (param, value) != ("rate_cap_bps", math.inf)
        assert (eng._flow_seq, eng.live_flows, len(eng.solver)) == (0, 0, 0)
        assert not any(eng._users) and not eng._ticker.running
        return
    net.run(until=2.0)
    assert fc.finished and eng.live_flows == 0 and not eng._ticker.running


def test_two_fluid_flows_share_a_bottleneck_exactly():
    net = Network(linear(2))
    eng = HybridEngine(net, epoch_s=0.01)
    bw = net.link_between("s1", "s2").forward.bandwidth_bps
    payload = 10_000_000
    fa = eng.start_flow(["h1", "s1", "s2", "h2"], payload)
    fb = eng.start_flow(["h1", "s1", "s2", "h2"], payload)
    net.run()  # bare run must drain: the ticker quiesces when flows finish
    expected = (payload / WIRE_EFFICIENCY) * 8 / (bw / 2)
    assert fa.finished and fb.finished
    assert fa.finished_s == pytest.approx(expected)
    assert fb.finished_s == pytest.approx(expected)
    # interpolated-finish: not rounded up to an epoch edge
    assert fa.finished_s % eng.epoch_s != pytest.approx(0.0)


def test_quiesce_clears_published_load_and_stops_ticker():
    net = Network(linear(2))
    eng = HybridEngine(net, epoch_s=0.01)
    fc = eng.start_flow(["h1", "s1", "s2", "h2"], 1_000_000)
    net.run()
    assert fc.finished
    assert eng.live_flows == 0
    assert not eng._ticker.running
    assert all(ch.fluid_load_bps == 0.0 for ch in eng._channels)
    assert eng.link_fluid_load_bps() == {}


def test_done_event_fires_with_the_transfer_handle():
    net = Network(linear(2))
    eng = HybridEngine(net, epoch_s=0.01)
    fc = eng.start_flow(["h1", "s1", "s2", "h2"], 1_000_000)
    seen = []
    fc.done.callbacks.append(lambda ev: seen.append(ev.value))
    net.run()
    assert seen == [fc]
    assert fc.goodput_bps() > 0


def test_effective_bandwidth_debits_fluid_load_with_floor():
    net = Network(linear(2))
    ch = net.link_between("s1", "s2").forward
    assert ch.effective_bandwidth_bps() == ch.bandwidth_bps
    ch.fluid_load_bps = ch.bandwidth_bps * 0.4
    assert ch.effective_bandwidth_bps() == pytest.approx(ch.bandwidth_bps * 0.6)
    ch.fluid_load_bps = ch.bandwidth_bps * 2  # overload: 1% floor
    assert ch.effective_bandwidth_bps() == pytest.approx(ch.bandwidth_bps * 0.01)


def test_fluid_background_slows_packet_serialization():
    """background-load invariant, channel level: tx time scales up."""
    from repro.net.packet import Packet

    def serialization_span(fluid_fraction):
        net = Network(linear(2), seed=1)
        ch = net.link_between("s1", "s2").forward
        ch.fluid_load_bps = ch.bandwidth_bps * fluid_fraction
        host = net.host("h1")
        for _ in range(10):
            ch.send(
                Packet(
                    eth_src=host.mac, eth_dst=host.mac,
                    ip_src=host.ip, ip_dst=host.ip, payload_size=1000,
                )
            )
        return ch._tx_free_at

    assert serialization_span(0.5) == pytest.approx(serialization_span(0.0) * 2)


def test_handoff_conservation_debits_equal_packet_bytes():
    """conservation invariant: measured debits == channel byte counters."""
    bed = Testbed.create(seed=0)
    eng = HybridEngine(bed.net, epoch_s=0.005)
    path = bed.l3.pair_paths[("h1", "h10")]
    on_path = [eng._channels[row] for row in eng._rows_on(path)]
    baseline = {ch.name: ch.stats.bytes for ch in on_path}
    # Large fluid flow outlives a small packet transfer on the same path,
    # so every packet byte lands inside measured epochs.
    fc = eng.start_flow(path, 30_000_000)
    sessions = []

    def open_all():
        s = yield from open_tcp(bed, "h1", "h10", 28000)
        sessions.append(s)

    run_process(bed.net, open_all())

    def xfer():
        yield from measure_transfer(
            bed.net.sim, sessions[0].client, sessions[0].server, 2_000_000
        )

    run_process(bed.net, xfer())
    bed.net.run()
    assert fc.finished
    carried = sum(ch.stats.bytes - baseline[ch.name] for ch in on_path)
    assert carried > 2_000_000  # the transfer really crossed the path
    assert eng.debited_bytes == pytest.approx(carried)
    # and the fluid side advanced exactly its wire-byte target
    assert eng.bytes_advanced == pytest.approx(fc.wire_bytes)


def test_peer_share_converges_to_fair_split():
    """peer-share invariant: registered TCP vs one fluid flow, same path."""
    bed = Testbed.create(seed=0)
    eng = HybridEngine(bed.net, epoch_s=0.005)
    path = bed.l3.pair_paths[("h1", "h10")]
    nbytes = 16_000_000
    fc = eng.start_flow(path, nbytes)
    pid = eng.peer_flow(path, flow_id="tcp")
    assert eng.live_peers == 1
    sessions = []

    def open_all():
        s = yield from open_tcp(bed, "h1", "h10", 28000)
        sessions.append(s)

    run_process(bed.net, open_all())
    got = {}

    def xfer():
        r = yield from measure_transfer(
            bed.net.sim, sessions[0].client, sessions[0].server, nbytes
        )
        got["tcp"] = r.goodput_bps
        eng.end_peer(pid)

    run_process(bed.net, xfer())
    bed.net.run()
    fair = (GBPS / 2) * WIRE_EFFICIENCY
    assert got["tcp"] == pytest.approx(fair, rel=0.05)
    assert fc.goodput_bps() == pytest.approx(fair, rel=0.05)
    assert eng.live_peers == 0


def test_fidelity_sampling_is_deterministic_and_rate_monotone():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.3)
    ids = [f"flow-{i}" for i in range(200)]
    first = [eng.fidelity_for(fid) for fid in ids]
    assert first == [eng.fidelity_for(fid) for fid in ids]
    packet_at_03 = {f for f, v in zip(ids, first) if v == "packet"}
    # roughly 30% land packet-side (hash-uniform, not exact)
    assert 0.15 < len(packet_at_03) / len(ids) < 0.45
    eng.sample_rate = 0.6
    packet_at_06 = {f for f in ids if eng.fidelity_for(f) == "packet"}
    assert packet_at_03 <= packet_at_06  # raising the rate only adds pins
    eng.sample_rate = 1.0
    assert all(eng.fidelity_for(f) == "packet" for f in ids)
    eng.sample_rate = 0.0
    assert all(eng.fidelity_for(f) == "fluid" for f in ids)


def test_pinned_nodes_force_packet_fidelity():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.0)
    eng.pin_node("h3")
    assert eng.fidelity_for("x", path=["h3", "p0e1", "h4"]) == "packet"
    assert eng.fidelity_for("x", path=["h1", "p0e0", "h2"]) == "fluid"
    assert "h3" in eng.pinned_nodes


def test_pin_from_fault_schedule_covers_spec_targets():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.0)
    sched = FaultSchedule(seed=1)
    sched.add(LinkFlap("p0e0", "p0a0", at_s=1.0, down_for_s=0.5))
    sched.add(SwitchCrash("c1", at_s=2.0, down_for_s=1.0))
    added = eng.pin_from_schedule(sched)
    assert added == 3
    assert {"p0e0", "p0a0", "c1"} <= eng.pinned_nodes
    assert eng.fidelity_for("f", path=["h1", "p0e0", "h2"]) == "packet"


def test_live_journey_recorder_pins_all_flows():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.0)
    assert eng.fidelity_for("f", path=["h1", "p0e0", "h2"]) == "fluid"
    JourneyRecorder.attach(net)
    assert eng.fidelity_for("f", path=["h1", "p0e0", "h2"]) == "packet"


def test_journey_pin_follows_attach_and_detach_whenever_they_happen():
    path = ["h1", "p0e0", "h2"]
    # attached before the engine exists
    net = Network(fat_tree(4))
    early = JourneyRecorder.attach(net)
    eng = HybridEngine(net, sample_rate=0.0)
    assert eng.fidelity_for("f", path) == eng.fidelity_for("f") == "packet"
    early.detach()
    assert net.journey is None
    assert eng.fidelity_for("f", path) == eng.fidelity_for("f") == "fluid"
    # attached late; a second recorder is refused until the first detaches
    first = JourneyRecorder.attach(net)
    with pytest.raises(ValueError):
        JourneyRecorder.attach(net)
    assert net.journey is first
    first.detach()
    second = JourneyRecorder.attach(net)
    assert net.journey is second
    assert eng.fidelity_for("f", path) == "packet"
    first.detach()  # already detached: touches nothing of the second
    assert net.journey is second
    second.detach()
    assert eng.fidelity_for("f", path) == "fluid"
    assert all(
        ch.journey is None for link in net.links for ch in (link.forward, link.reverse)
    )


def test_a_recorder_that_never_records_pins_nothing():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.0)
    idle = JourneyRecorder.attach(net, sample_rate=0.0)
    assert idle.never_records and net.journey is None
    assert eng.fidelity_for("f", path=["h1", "p0e0", "h2"]) == "fluid"


def test_fidelity_decision_does_not_scan_the_fabric():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.5)

    class NoScan(list):
        def __iter__(self):
            raise AssertionError("fidelity_for walked every link of the fabric")

    net.links = NoScan(net.links)
    assert {eng.fidelity_for(f"flow-{i}") for i in range(50)} == {"packet", "fluid"}


def test_registry_shapes():
    names = [inv.name for inv in HANDOFF_CONTRACT]
    assert len(names) == len(set(names))
    assert "no-fluid-no-op" in names and "conservation" in names
    subsystems = [p.subsystem for p in PACKET_PINS]
    assert subsystems == ["operator", "journey", "fault", "attack"]
