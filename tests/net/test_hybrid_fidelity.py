"""Cross-mode fidelity: hybrid vs the pure packet engine.

Two contract bars from docs/scale.md, both acceptance criteria of the
hybrid layer:

* **byte-identity** — a hybrid engine at sample rate 1.0 (every flow
  pinned packet-side, zero fluid flows) must leave the packet engine's
  journey rows byte-identical to a run with no engine attached;
* **steady-state tolerance** — the same bulk-transfer scenario run fully
  packet and fully fluid must report per-flow goodputs within 5% on
  seeded fat-tree fabrics.
"""

import pytest

from repro.bench import Testbed, open_tcp, run_process
from repro.net import HybridEngine, fat_tree
from repro.obs import JourneyRecorder
from repro.workloads.iperf import measure_transfer

NBYTES = 2_000_000
FT4_PAIRS = [("h1", "h10"), ("h3", "h12"), ("h5", "h14"), ("h7", "h16")]
FT8_PAIRS = [("h1", "h100"), ("h20", "h80"), ("h33", "h120"), ("h50", "h9")]


def _packet_goodputs(bed, pairs, nbytes=NBYTES):
    """Run concurrent TCP transfers; return per-pair goodput (bps)."""
    sessions = []

    def open_all():
        for i, (a, b) in enumerate(pairs):
            s = yield from open_tcp(bed, a, b, 28000 + i)
            sessions.append((a, b, s))

    run_process(bed.net, open_all())
    measured = {}

    def transfer_all():
        procs = {
            (a, b): bed.net.sim.process(
                measure_transfer(bed.net.sim, s.client, s.server, nbytes)
            )
            for a, b, s in sessions
        }
        results = yield bed.net.sim.all_of(list(procs.values()))
        for pair, r in zip(procs, results):
            measured[pair] = r.goodput_bps

    run_process(bed.net, transfer_all())
    return measured


def _fluid_goodputs(bed, pairs, nbytes=NBYTES, epoch_s=0.002):
    """Run the same transfers as fluid flows; return per-pair goodput."""
    eng = HybridEngine(bed.net, epoch_s=epoch_s)
    handles = {
        (a, b): eng.start_flow(bed.l3.pair_paths[(a, b)], nbytes)
        for a, b in pairs
    }
    bed.net.run()
    assert all(fc.finished for fc in handles.values())
    return {pair: fc.goodput_bps() for pair, fc in handles.items()}


def _wired_testbed(topo, pairs, seed=0):
    # fat_tree(8) has 128 hosts: widen the S_ID space (default fits 64)
    bed = Testbed.create(
        seed=seed, topo=topo, pre_wire=False, mic_kwargs={"mn_bits": 20}
    )
    for a, b in pairs:
        bed.l3.wire_pair(a, b)
    bed.net.run()  # let installs finish before measuring
    return bed


def test_sample_rate_one_is_byte_identical_to_packet_engine():
    def run_scenario(attach_engine):
        bed = Testbed.create(seed=0)
        journey = JourneyRecorder.attach(bed.net)
        if attach_engine:
            eng = HybridEngine(bed.net, sample_rate=1.0)
            # every candidate is pinned; nothing ever reaches the solver
            assert eng.fidelity_for("any-flow") == "packet"
        _packet_goodputs(bed, FT4_PAIRS[:2])
        bed.net.run()
        return journey.rows(), bed.net.sim.now

    base_records, base_now = run_scenario(attach_engine=False)
    hybrid_records, hybrid_now = run_scenario(attach_engine=True)
    assert hybrid_now == base_now
    assert len(hybrid_records) == len(base_records) > 0
    assert hybrid_records == base_records


@pytest.mark.parametrize(
    "topo_k,pairs",
    [(4, FT4_PAIRS), (8, FT8_PAIRS)],
    ids=["fat_tree4", "fat_tree8"],
)
def test_fluid_vs_packet_goodput_within_5pct(topo_k, pairs):
    packet = _packet_goodputs(_wired_testbed(fat_tree(topo_k), pairs), pairs)
    fluid = _fluid_goodputs(_wired_testbed(fat_tree(topo_k), pairs), pairs)
    assert set(packet) == set(fluid)
    for pair in pairs:
        rel = abs(fluid[pair] - packet[pair]) / packet[pair]
        assert rel <= 0.05, (
            f"{pair}: fluid {fluid[pair]/1e6:.1f} Mbps vs "
            f"packet {packet[pair]/1e6:.1f} Mbps ({rel:.1%})"
        )
