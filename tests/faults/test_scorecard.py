"""The chaos driver end to end: scorecard fields, acceptance criteria, and
seed determinism (same seed -> byte-identical scorecard JSON)."""

import json

import pytest

from repro.faults import format_scorecard, run_chaos, scorecard_json


def _chaos_json(seed):
    card, _dep = run_chaos(seed=seed)
    return scorecard_json(card)


@pytest.fixture(scope="module")
def chaos3():
    """One shared seed-3 chaos run (cards are pure data, safe to share)."""
    card, dep = run_chaos(seed=3)
    return card, dep


def test_same_seed_is_byte_identical(chaos3):
    card, _dep = chaos3
    assert scorecard_json(card) == _chaos_json(3)


def test_different_seed_differs():
    assert _chaos_json(3) != _chaos_json(4)


def test_acceptance_survives_no_path_window_and_recovers(chaos3):
    card, dep = chaos3
    # The responder-access flap creates a no-surviving-path window: the sim
    # must survive it (we got here), the flow must have parked ...
    assert card["repair"]["parked_events"] >= 1
    # ... and every parked flow must recover after the heal.
    assert card["repair"]["parked_remaining"] == 0
    assert dep.mic.parked_flows == 0
    assert card["repair"]["completed"] >= 2
    assert card["repair"]["latency_s"]["count"] >= 2
    assert card["verification"]["ok"]


def test_scorecard_shape(chaos3):
    card, _dep = chaos3
    assert card["seed"] == 3
    assert card["topology"] == "fat-tree-4"
    avail = card["availability"]
    assert 0.0 < avail["overall"] <= 1.0
    assert len(avail["channels"]) == 3
    for ch in avail["channels"]:
        assert 0.0 <= ch["availability"] <= 1.0
        assert ch["probes_sent"] >= ch["probes_answered"]
    # The loss window really bit, and the control plane really fought back.
    assert card["faults"]["flowmods_lost"] > 0
    assert card["control_plane"]["flow_mods_retried"] > 0
    assert card["control_plane"]["detection_latency_s"] > 0.0
    assert card["loss"]["link_drops"] > 0
    # Anonymity under churn: the attacker stays near the decoy-diluted
    # expectation, far from certainty.
    attacker = card["attacker"]
    assert 0.0 < attacker["expected_accuracy"] < 1.0
    assert attacker["total_ingress"] > 0
    # Timeline mirrors the injected schedule.
    assert len(card["faults"]["timeline"]) >= 6
    assert card["faults"]["specs"]


def test_scorecard_json_is_stable_and_sorted(chaos3):
    card, _dep = chaos3
    text = scorecard_json(card)
    parsed = json.loads(text)
    assert parsed == card
    assert json.dumps(parsed, sort_keys=True, indent=2) == text


def test_format_scorecard_mentions_key_fields(chaos3):
    card, _dep = chaos3
    text = format_scorecard(card)
    assert "availability" in text
    assert "seed" in text
    assert "repair" in text
    for ch in card["availability"]["channels"]:
        assert ch["initiator"] in text


# ---------------------------------------------------------------------------
# inputs are checked before anything is deployed
# ---------------------------------------------------------------------------
@pytest.fixture
def no_deploy(monkeypatch):
    """``run_chaos`` fails loudly if it gets as far as deploying."""
    import repro.faults.chaos as chaos

    def refuse(*args, **kwargs):
        raise AssertionError("deployed before checking its inputs")

    monkeypatch.setattr(chaos, "deploy_mic", refuse)


@pytest.mark.parametrize("period", [0.0, -1.0])
def test_non_positive_probe_period_is_refused_before_deploying(no_deploy, period):
    # period 0 used to livelock the pumps at one instant
    with pytest.raises(ValueError, match="probe period must be positive"):
        run_chaos(probe_period_s=period)


def test_default_schedule_channel_floor_is_checked_before_deploying(no_deploy):
    with pytest.raises(ValueError, match=">= 3 channels"):
        run_chaos(n_channels=2)


@pytest.mark.parametrize("channels", ["2", "9"])
def test_cli_channels_outside_3_to_8_is_a_usage_error(channels, capsys):
    from repro.faults.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["run", "--channels", channels])
    assert exc.value.code == 2
    assert "--channels" in capsys.readouterr().err

