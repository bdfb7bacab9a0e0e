"""One controller, one or many shards: what the shard count may not move.

``deploy_mic()`` and ``deploy_mic(shards=1)`` build the same object, and
both reproduce the unsharded goldens byte for byte.  The sharded path has goldens of its
own, generated before the cluster and the controller were merged: every
compiled intent and drawn address of the canonical channels on four
shards, and the whole seed-0 chaos scorecard on four shards (the shard
crash and rejoin the default plan adds included).
"""

import pytest

from repro.anonymity import MicRewrite
from repro.attacks.base import DrawLog
from repro.core.controller import MimicController
from repro.core.deployment import deploy_mic
from repro.faults import run_chaos
from repro.faults.scorecard import scorecard_json

from tests.anonymity.helpers import (
    INTENTS_GOLDEN,
    INTENTS_GOLDEN_SHARDS4,
    SCORECARD_GOLDEN,
    SCORECARD_GOLDEN_SHARDS4,
    establish_canonical,
    intent_snapshot,
    snapshot_json,
)


def test_one_shard_intents_byte_identical_to_golden():
    dep, _grants = establish_canonical(shards=1)
    assert dep.mic.n_shards == 1
    assert snapshot_json(intent_snapshot(dep)) == INTENTS_GOLDEN.read_text()


def test_one_shard_chaos_scorecard_byte_identical_to_golden():
    card, dep = run_chaos(seed=0, shards=1)
    # One shard: no shard-crash fault is added and no controlplane
    # section appears, so the card equals the unsharded golden.
    assert "controlplane" not in card
    assert dep.mic.n_shards == 1
    assert scorecard_json(card) + "\n" == SCORECARD_GOLDEN.read_text()


def test_one_shard_matches_unsharded_run_exactly():
    dep_plain, _ = establish_canonical()
    dep_one, _ = establish_canonical(shards=1)
    assert type(dep_plain.mic) is type(dep_one.mic) is MimicController
    assert dep_plain.mic.n_shards == dep_one.mic.n_shards == 1
    assert snapshot_json(intent_snapshot(dep_plain)) == snapshot_json(
        intent_snapshot(dep_one)
    )


def test_zero_shards_is_refused():
    with pytest.raises(ValueError, match="at least one shard"):
        deploy_mic(shards=0)


def test_four_shard_intents_byte_identical_to_golden():
    dep, _grants = establish_canonical(shards=4)
    assert snapshot_json(intent_snapshot(dep)) == (
        INTENTS_GOLDEN_SHARDS4.read_text()
    )


def test_four_shard_chaos_scorecard_byte_identical_to_golden():
    card, _dep = run_chaos(seed=0, shards=4)
    assert scorecard_json(card) + "\n" == SCORECARD_GOLDEN_SHARDS4.read_text()


def test_four_shard_strategy_holds_every_channels_draws():
    """One strategy serves every shard: the draw log the tournament wraps
    around it covers the draws of channels planned on any of them."""
    strategy = MicRewrite()
    signatures = DrawLog().attach(strategy).signatures
    dep, _grants = establish_canonical(shards=4, mic_kwargs={"strategy": strategy})
    mic = dep.mic
    assert len({s.shard_id for s in mic.shards if s.channels}) >= 2
    for channel in mic.channels.values():
        for plan in channel.flows:
            for a in plan.fwd_addrs + plan.rev_addrs:
                key = (str(a.src_ip), str(a.dst_ip), a.sport, a.dport, a.mpls)
                assert signatures[key] == plan.flow_id
