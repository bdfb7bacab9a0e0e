"""The Strategy extraction is behavior-preserving, byte for byte.

The goldens under ``tests/data/`` were generated from the pre-refactor
``MimicController`` (compile/draw/decoy logic still inlined).  The ``mic``
strategy must reproduce them exactly: every compiled intent, every drawn
address, and the whole chaos scorecard.
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


def test_mic_intents_byte_identical_to_pre_refactor_golden():
    dep, _grants = establish_canonical()
    assert snapshot_json(intent_snapshot(dep)) == INTENTS_GOLDEN.read_text(), (
        "compiled intents diverged from the pre-refactor golden — the "
        "extraction is supposed to be behavior-preserving; if the change "
        "is intended, regenerate via tests.anonymity.helpers.write_goldens"
    )


def test_mic_intents_stable_across_reruns():
    dep1, _ = establish_canonical()
    snap1 = snapshot_json(intent_snapshot(dep1))
    dep2, _ = establish_canonical()
    assert snap1 == snapshot_json(intent_snapshot(dep2))


def test_chaos_scorecard_byte_identical_to_pre_refactor_golden():
    card, _dep = run_chaos(seed=0)
    assert scorecard_json(card) + "\n" == SCORECARD_GOLDEN.read_text(), (
        "chaos scorecard diverged from the pre-refactor golden (seed 0)"
    )
