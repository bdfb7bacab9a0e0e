"""The engine's array epoch against the dict-based epoch it replaced.

``HybridEngine`` keeps its epoch state in arrays aligned with the solver's
link rows and its flow order; ``hybrid_oracle.OracleEngine`` is the
per-channel, per-flow dict loop it replaced.  Both are driven through the
same generated sequences — fluid flows on fat_tree(4)/(8) paths, some rate
capped, bursts large enough for the solver's array loop, packet peers
registered and ended, packet bytes injected on channel counters, flows
started mid-epoch and at tick instants — and after every epoch their rates,
published loads, external debits, per-flow progress, finish instants and
counters must be equal, bit for bit.
"""

import pytest
from hybrid_oracle import OracleEngine
from hypothesis import given, settings, strategies as st

from repro.bench import fat_tree_path
from repro.net import WIRE_EFFICIENCY, HybridEngine, Network, fat_tree

EPOCH = 0.010


def channels_of(net):
    return [ch for link in net.links for ch in (link.forward, link.reverse)]


class Side:
    """One network and its engine, recording a snapshot after every tick."""

    def __init__(self, engine_cls, k: int):
        self.net = Network(fat_tree(k))
        self.eng = engine_cls(self.net, epoch_s=EPOCH)
        self.channels = channels_of(self.net)
        self.handles = []
        self.peers = []
        self.snapshots = []
        tick = self.eng._ticker.fn

        def recorded() -> None:
            tick()
            self.snapshots.append(self.snapshot())

        self.eng._ticker.fn = recorded

    def snapshot(self):
        eng = self.eng
        return (
            eng.net.sim.now,
            dict(eng.solver._rates),
            [ch.fluid_load_bps for ch in self.channels],
            [eng.solver.external_load_bps(ch.name) for ch in self.channels],
            [(fc.advanced_bytes, fc.finished_s) for fc in self.handles],
            eng.bytes_advanced,
            eng.debited_bytes,
            eng.finished_flows,
            eng.solver.resolves,
            eng.solver.rounds,
        )


def run_twin(k: int, ops) -> tuple[Side, Side]:
    """Apply ``ops`` to an engine and an oracle side in lockstep."""
    sides = (Side(HybridEngine, k), Side(OracleEngine, k))
    hosts = fat_tree(k).hosts()

    def path(a: int, b: int, salt: int) -> list[str]:
        src = hosts[a % len(hosts)]
        dst = hosts[(a + 1 + b % (len(hosts) - 1)) % len(hosts)]
        return fat_tree_path(k, src, dst, salt)

    for op in ops:
        kind = op[0]
        for side in sides:
            if kind == "start":
                _, flows, payload, cap = op
                for a, b, salt in flows:
                    side.handles.append(
                        side.eng.start_flow(path(a, b, salt), payload, rate_cap_bps=cap)
                    )
            elif kind == "peer":
                _, a, b, salt, cap = op
                side.peers.append(side.eng.peer_flow(path(a, b, salt), rate_cap_bps=cap))
            elif kind == "end_peer":
                if side.peers:
                    side.eng.end_peer(side.peers.pop(op[1] % len(side.peers)))
            elif kind == "bump":
                _, row, nbytes = op
                side.channels[row % len(side.channels)].stats.bytes += nbytes
            else:  # "run"
                side.net.run(until=side.net.sim.now + op[1] * EPOCH)
    for side in sides:
        side.net.run(until=side.net.sim.now + 60.0)
    return sides


def assert_twins_equal(engine: Side, oracle: Side) -> None:
    assert len(engine.snapshots) == len(oracle.snapshots)
    for got, want in zip(engine.snapshots, oracle.snapshots):
        assert got == want
    assert engine.snapshot() == oracle.snapshot()
    assert all(fc.finished for fc in engine.handles)
    for got, want in zip(engine.handles, oracle.handles):
        assert (got.flow_id, got.links, got.wire_bytes, got.started_s) == (
            want.flow_id, want.links, want.wire_bytes, want.started_s,
        )
        assert got.finished_s >= got.started_s


host_index = st.integers(0, 127)
flow = st.tuples(host_index, host_index, st.integers(0, 3))
rate_cap = st.one_of(st.none(), st.none(), st.sampled_from([5e7, 3e8, 9e8]))
op = st.one_of(
    st.tuples(
        st.just("start"),
        st.lists(flow, min_size=1, max_size=40),
        st.sampled_from([1_000, 40_000, 600_000, 3_000_000, 9_000_000]),
        rate_cap,
    ),
    st.tuples(st.just("peer"), host_index, host_index, st.integers(0, 3), rate_cap),
    st.tuples(st.just("end_peer"), st.integers(0, 7)),
    st.tuples(
        st.just("bump"),
        st.integers(0, 1 << 12),
        st.sampled_from([1_514, 90_000, 2_000_000]),
    ),
    st.tuples(
        st.just("run"),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.01, 2.5)),
    ),
)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([4, 8]), ops=st.lists(op, min_size=1, max_size=24))
def test_generated_sequences_equal_the_dict_epoch_bit_for_bit(k, ops):
    assert_twins_equal(*run_twin(k, ops))


def test_a_long_mixed_run_on_fat_tree8():
    """Several hundred flows through the array loop, with every kind of churn."""
    ops = [
        ("start", [(i, 7 * i, i % 4) for i in range(200)], 3_000_000, None),
        ("peer", 3, 40, 1, None),
        ("run", 0.37),
        ("bump", 17, 2_000_000),
        ("start", [(5 * i, i, 2) for i in range(60)], 40_000, 3e8),
        ("run", 1.0),
        ("peer", 9, 2, 0, 5e7),
        ("bump", 101, 90_000),
        ("run", 2.2),
        ("end_peer", 0),
        ("start", [(i, 3 * i, 1) for i in range(40)], 600_000, None),
        ("run", 4.0),
        ("end_peer", 0),
    ]
    engine, oracle = run_twin(8, ops)
    assert engine.eng.solver.rounds > 0  # the scalar path counts no rounds
    assert engine.eng.debited_bytes > 0
    assert_twins_equal(engine, oracle)


def test_flows_that_start_the_ticker_keep_the_epoch_edge_arithmetic():
    # started at the ticker's origin: advanced over dt and interpolated from
    # now - dt, which here is not the start instant to the last bit
    ops = [("run", 0.037), ("start", [(1, 2, 0), (3, 9, 1)], 1_000, None)]
    engine, oracle = run_twin(4, ops)
    tick = engine.snapshots[0][0]
    start = engine.handles[0].started_s
    assert tick - (tick - start) != start
    assert_twins_equal(engine, oracle)


def test_a_channel_leaving_the_boundary_drops_its_debit():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, epoch_s=EPOCH)
    path = fat_tree_path(4, "h1", "h16", 0)
    fc = eng.start_flow(path, 40_000)
    ch = eng._channels[eng._rows_on(path)[1]]
    ch.stats.bytes += 90_000
    net.run()
    assert fc.finished and eng.debited_bytes == 90_000
    # debited at the tick that finished the flow, then released with it
    assert eng.solver.external_load_bps(ch.name) == 0.0


def test_a_flow_started_mid_epoch_finishes_after_it_starts():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.0)
    path = fat_tree_path(4, "h1", "h16", 0)
    bulk = eng.start_flow(path, 5_000_000)
    net.run(until=0.0091)
    small = eng.start_flow(path, 1_000)
    net.run()
    assert small.started_s == 0.0091
    # advanced from its own start at the share it got at the 10 ms tick
    assert small.started_s < small.finished_s < 0.010
    assert small.goodput_bps() == pytest.approx(0.5e9 * WIRE_EFFICIENCY)
    assert bulk.finished_s > small.finished_s


def test_a_flow_started_at_a_tick_instant_advances_the_whole_epoch():
    net = Network(fat_tree(4))
    eng = HybridEngine(net, sample_rate=0.0)
    path = fat_tree_path(4, "h1", "h16", 0)
    eng.start_flow(path, 50_000_000)
    net.run(until=EPOCH)  # the first tick runs at this instant
    late = eng.start_flow(path, 5_000_000)
    net.run(until=2 * EPOCH)
    # two flows at 500 Mb/s each for the whole second epoch
    assert late.advanced_bytes == 0.5e9 * EPOCH / 8.0
