"""Per-flow and per-channel RNG streams go with their owner.

``add_decoys`` draws a flow's decoy neighbours from the planner's
``mic-decoys/<owner>`` stream and TARN its rotation phase from
``anonymity-tarn/ch<id>``.  Neither lands in the simulator's stream table:
the planner holds a flow's decoy stream until it releases the flow (a
repair or a rotation of a live flow keeps drawing from the stream it has),
and TARN's clock alone holds its channel's stream.
"""

from repro.anonymity import TarnHopping
from repro.bench import run_shard_churn

from tests.anonymity.helpers import establish_canonical

PER_OWNER = ("mic-decoys/", "anonymity-tarn/")


def _tabled(sim):
    return [name for name in sim._rng_streams if name.startswith(PER_OWNER)]


def test_a_finished_churn_leaves_no_decoy_stream():
    result = run_shard_churn(k=4, clients=8, rounds=2, seed=0)
    dep = result.deployment
    assert result.setups == result.teardowns == 16 and dep.mic.live_channels == 0
    assert dep.mic.planner.decoy_streams == {} and _tabled(dep.sim) == []


def test_a_rotation_keeps_the_stream_and_a_teardown_drops_it():
    dep, _grants = establish_canonical(mic_kwargs={"strategy": TarnHopping(period_s=1.0)})
    sim, mic = dep.sim, dep.mic
    held = mic.planner.decoy_streams
    owners = [plan.owner for plan in mic.channels[1].flows]
    streams = [held[owner] for owner in owners]
    states = [stream.getstate() for stream in streams]
    dep.run_for(2.5)  # every channel's clock has turned at least once
    assert mic.strategy.rotations_completed >= 3
    for owner, stream, state in zip(owners, streams, states):
        assert held[owner] is stream and stream.getstate() != state

    mic.teardown(1)
    assert not set(owners) & set(held)
    assert len(held) == 2 * len(owners)
    dep.run_for(2.0)  # the torn-down channel's clock stops without a draw
    assert mic.live_channels == 2 and _tabled(sim) == []
