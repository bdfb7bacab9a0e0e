"""Per-flow and per-channel RNG streams go with their owner.

``add_decoys`` draws a flow's decoy neighbours from ``mic-decoys/<owner>``
and TARN its rotation phase from ``anonymity-tarn/ch<id>``.  Ids are never
reused, so a stream whose owner is gone is never drawn from again: it is
dropped where the flow (the channel) is released, while a repair or a
rotation of a live flow keeps drawing from the stream it has.
"""

from repro.anonymity import TarnHopping
from repro.bench import run_shard_churn

from tests.anonymity.helpers import establish_canonical


def _streams(sim, prefix):
    return sorted(name for name in sim._rng_streams if name.startswith(prefix))


def test_a_finished_churn_leaves_no_decoy_stream():
    result = run_shard_churn(k=4, clients=8, rounds=2, seed=0)
    dep = result.deployment
    assert result.setups == result.teardowns == 16 and dep.mic.live_channels == 0
    assert _streams(dep.sim, "mic-decoys/") == []


def test_a_rotation_keeps_the_stream_and_a_teardown_drops_it():
    dep, _grants = establish_canonical(mic_kwargs={"strategy": TarnHopping(period_s=1.0)})
    sim, mic = dep.sim, dep.mic
    decoys = [f"mic-decoys/ch1/c{plan.cookie}" for plan in mic.channels[1].flows]
    streams = [sim._rng_streams[name] for name in decoys]
    states = [stream.getstate() for stream in streams]
    dep.run_for(2.5)  # every channel's clock has turned at least once
    assert mic.strategy.rotations_completed >= 3
    for name, stream, state in zip(decoys, streams, states):
        assert sim._rng_streams[name] is stream and stream.getstate() != state
    assert _streams(sim, "anonymity-tarn/") == [f"anonymity-tarn/ch{i}" for i in (1, 2, 3)]

    mic.teardown(1)
    assert not set(decoys) & set(sim._rng_streams)
    assert _streams(sim, "anonymity-tarn/") == ["anonymity-tarn/ch2", "anonymity-tarn/ch3"]
    assert len(_streams(sim, "mic-decoys/")) == 2 * len(decoys)
    dep.run_for(2.0)  # the torn-down channel's clock stops without a draw
    assert _streams(sim, "anonymity-tarn/") == ["anonymity-tarn/ch2", "anonymity-tarn/ch3"]
