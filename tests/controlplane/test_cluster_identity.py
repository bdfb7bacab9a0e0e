"""Single-shard mode is byte-identical to the unsharded controller.

The acceptance bar for the shard layer: a ``MimicControllerCluster`` with
``n_shards=1`` must reproduce the pre-shard goldens exactly — every
compiled intent and drawn address (``mic_intents_fat_tree4_seed0.json``)
and the whole seed-0 chaos scorecard (``chaos_scorecard_seed0.json``).
Any divergence means the dispatch-hook seam leaked behavior.
"""

from repro.faults import run_chaos
from repro.faults.scorecard import scorecard_json

from tests.anonymity.helpers import (
    INTENTS_GOLDEN,
    SCORECARD_GOLDEN,
    establish_canonical,
    intent_snapshot,
    snapshot_json,
)


def test_one_shard_intents_byte_identical_to_golden():
    dep, _grants = establish_canonical(shards=1)
    assert dep.mic.n_shards == 1
    assert snapshot_json(intent_snapshot(dep)) == INTENTS_GOLDEN.read_text(), (
        "1-shard cluster compiled intents diverged from the unsharded "
        "golden — the dispatch-hook seam must be behavior-preserving"
    )


def test_one_shard_matches_unsharded_run_exactly():
    dep_plain, _ = establish_canonical()
    snap_plain = snapshot_json(intent_snapshot(dep_plain))
    dep_shard, _ = establish_canonical(shards=1)
    assert snap_plain == snapshot_json(intent_snapshot(dep_shard))


def test_one_shard_chaos_scorecard_byte_identical_to_golden():
    card, dep = run_chaos(seed=0, shards=1)
    # One shard: no shard-crash fault is added and no controlplane
    # section appears, so the card must equal the unsharded golden.
    assert "controlplane" not in card
    assert dep.mic.n_shards == 1
    assert scorecard_json(card) + "\n" == SCORECARD_GOLDEN.read_text(), (
        "1-shard cluster chaos scorecard diverged from the unsharded "
        "golden (seed 0)"
    )
