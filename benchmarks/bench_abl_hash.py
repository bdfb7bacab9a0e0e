"""Abl-5: per-MN independent hash functions vs one global hash.

The paper rejects a single global MAGA hash: an adversary who compromises
one MN and reconstructs its function could classify m-addresses *anywhere*
in the network into flow classes and link the segments of an m-flow.  This
bench plays that adversary against both configurations.
"""

from repro.bench import FigureResult, Testbed, run_process
from repro.attacks import linkage_success_rate


def linkage_rate(shared: bool, channels: int = 10, seed: int = 0) -> float:
    bed = Testbed.create(
        seed=seed, pre_wire=False, mic_kwargs={"shared_flow_hash": shared}
    )
    mic = bed.mic

    def establish_all():
        for i in range(channels):
            src, dst = f"h{(i % 8) + 1}", f"h{16 - (i % 8)}"
            yield from mic.establish(src, dst, service_port=80, n_mns=3)

    run_process(bed.net, establish_all())

    # The adversary compromised one MN and recovered its hash function.
    compromised = next(iter(mic.planner.mn_spaces))
    adversary_F = mic.planner.mn_spaces[compromised]

    trials = []
    for channel in mic.channels.values():
        for plan in channel.flows:
            labeled = [a for a in plan.fwd_addrs if a.mpls is not None]
            if len(labeled) < 2:
                continue
            ids = {
                adversary_F.flow_id_of(a.src_ip, a.dst_ip, a.mpls)
                for a in labeled
            }
            # Linked iff every segment classifies to one consistent class.
            trials.append(len(ids) == 1)
    return linkage_success_rate(trials)


def run_ablation():
    result = FigureResult(
        "Abl-5", "cross-MN m-flow linkage after one-MN hash recovery",
        x_label="configuration", y_label="linkage success rate", unit="",
    )
    result.add("linkage", "global hash", linkage_rate(shared=True))
    result.add("linkage", "per-MN hash", linkage_rate(shared=False))
    return result


def test_abl_hash(benchmark, save_table):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    save_table("abl_hash", result)

    # With a single global hash the adversary links every m-flow.
    assert result.value("linkage", "global hash") == 1.0
    # With per-MN functions the recovered function is useless elsewhere.
    assert result.value("linkage", "per-MN hash") < 0.2
