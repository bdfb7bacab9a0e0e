"""The attack registry and the strategy-vs-attack tournament driver."""

import json
import pathlib

import pytest

from repro.anonymity import STRATEGIES
from repro.attacks import (
    ATTACKS,
    Attack,
    AttackContext,
    ChannelTruth,
    ObservationPoint,
    format_attack_table,
    frontier_json,
    get_attack,
    register_attack,
    run_tournament,
)

FRONTIER_GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data" / "frontier_quick_seed0_accuracies.json"
)


# -- registry ------------------------------------------------------------

def test_registry_covers_the_required_adversary_suite():
    assert len(ATTACKS) >= 4
    assert {"mn-correlation", "timing-correlation", "size-fingerprint",
            "watermark", "churn-exploit"} <= set(ATTACKS)


def test_get_attack_resolves_and_rejects_unknown():
    assert get_attack("watermark").name == "watermark"
    with pytest.raises(ValueError, match="unknown"):
        get_attack("rubber-hose")


def test_register_attack_rejects_duplicate_names():
    class Dup(Attack):
        name = "watermark"
        vantage = "x"
        signal = "y"
        scored_against = "z"

        def run(self, ctx):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(ValueError, match="duplicate"):
        register_attack(Dup)


def _blind_watermark_accuracy(responders):
    """Watermark accuracy on channels whose taps saw nothing at all."""
    channels = [
        ChannelTruth(
            channel_id=i, initiator=f"h{i + 1}", responder=resp,
            initiator_ip=f"10.0.0.{i + 1}", responder_ip=f"10.0.1.{i + 1}",
            service_port=7001 + i, payload_bytes=0, first_mn="c1",
            initiator_edge=f"e{i}", responder_edge=f"r{i}",
        )
        for i, resp in enumerate(responders)
    ]
    points = {}
    for ch in channels:
        for edge in (ch.initiator_edge, ch.responder_edge):
            point = ObservationPoint.__new__(ObservationPoint)
            point.network, point.switch_name, point.observations = None, edge, []
            points[edge] = point
    ctx = AttackContext(dep=None, strategy_name="mic", channels=channels,
                        points=points)
    return get_attack("watermark").run(ctx).accuracy


def test_watermark_ties_are_a_uniform_guess_not_a_name_order():
    """Every similarity is 0.0, so each channel's pick is a coin toss
    between the two responders: 1/2, whichever name sorts last."""
    assert _blind_watermark_accuracy(["h9", "h9", "h1"]) == pytest.approx(0.5)
    assert _blind_watermark_accuracy(["h1", "h1", "h9"]) == pytest.approx(0.5)


def test_attack_table_has_one_row_per_attack():
    table = format_attack_table()
    for name in ATTACKS:
        assert f"`{name}`" in table


# -- tournament ----------------------------------------------------------

@pytest.fixture(scope="module")
def quick_frontier():
    return run_tournament(seed=0, quick=True)


def test_frontier_is_byte_identical_across_reruns(quick_frontier):
    again = run_tournament(seed=0, quick=True)
    assert frontier_json(quick_frontier) == frontier_json(again)


def test_frontier_covers_strategies_times_attacks(quick_frontier):
    rounds = quick_frontier["rounds"]
    assert len(rounds) == 1 and rounds[0]["topology"] == "fat-tree-4"
    strategies = rounds[0]["strategies"]
    assert set(strategies) == set(STRATEGIES) and len(strategies) >= 3
    assert set(quick_frontier["attacks"]) == set(ATTACKS)
    for name, entry in strategies.items():
        assert set(entry["attacks"]) == set(ATTACKS)
        for attack, res in entry["attacks"].items():
            assert 0.0 <= res["accuracy"] <= 1.0, (name, attack, res)


def test_frontier_reports_the_overhead_axis(quick_frontier):
    strategies = quick_frontier["rounds"][0]["strategies"]
    for name, entry in strategies.items():
        ov = entry["overhead"]
        assert ov["rules_installed"] > 0
        assert ov["setup_latency_s_mean"] > 0
        assert entry["availability"] == pytest.approx(1.0), (
            f"{name}: channels did not survive the injected fault")
        assert entry["verifier_ok"] is True
    # The axes actually separate the strategies: rotation churn shows
    # only under tarn, alias fan-out only under frvm.
    assert strategies["mic"]["overhead"]["rotations_completed"] == 0
    assert strategies["tarn"]["overhead"]["rotations_completed"] > 0
    assert strategies["mic"]["overhead"]["aliases_live"] == 0
    assert strategies["frvm"]["overhead"]["aliases_live"] > 0


def test_frontier_accuracies_match_the_pinned_golden(quick_frontier):
    """The current frontier is pinned byte for byte, so any future defense
    (or attack tweak) surfaces as an explicit diff against
    ``tests/data/frontier_quick_seed0_accuracies.json``.

    Regenerate (only when the change to the frontier is *intended*)::

        PYTHONPATH=src python -c "
        import json, pathlib
        from repro.attacks import run_tournament
        f = run_tournament(seed=0, quick=True)
        acc = {s: {a: round(r['accuracy'], 6)
                   for a, r in e['attacks'].items()}
               for s, e in f['rounds'][0]['strategies'].items()}
        pathlib.Path('tests/data/frontier_quick_seed0_accuracies.json'
                     ).write_text(json.dumps(acc, indent=2, sort_keys=True)
                                  + '\\n')"
    """
    golden = json.loads(FRONTIER_GOLDEN.read_text())
    acc = {
        s: {a: round(res["accuracy"], 6)
            for a, res in entry["attacks"].items()}
        for s, entry in quick_frontier["rounds"][0]["strategies"].items()
    }
    assert acc == golden, (
        "the strategy-vs-attack frontier moved — if a defense or attack "
        "change is intended, regenerate the golden (see docstring) and "
        "call the shift out in the PR"
    )


def test_watermark_still_defeats_every_strategy(quick_frontier):
    """No deployed strategy defends against the active watermark yet: its
    accuracy is pinned at exactly 1.0 across the board.  The open defense
    (cover traffic / flow padding) is tracked in docs/anonymity.md — when
    it lands, this test is the tripwire that must flip."""
    strategies = quick_frontier["rounds"][0]["strategies"]
    for name, entry in strategies.items():
        assert entry["attacks"]["watermark"]["accuracy"] == 1.0, (
            f"{name} now resists the watermark — update the pinned "
            "frontier and the open-defense note in docs/anonymity.md"
        )


def test_frontier_json_round_trips(quick_frontier):
    text = frontier_json(quick_frontier)
    assert json.loads(text) == quick_frontier
    assert text == json.dumps(quick_frontier, indent=2, sort_keys=True)


def test_cli_writes_the_frontier_artifact(tmp_path, capsys):
    from repro.attacks.__main__ import main

    out = tmp_path / "frontier.json"
    rc = main([
        "tournament", "--quick", "--seed", "0",
        "--strategies", "mic", "--attacks", "watermark",
        "-o", str(out), "--no-summary",
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["attacks"] == ["watermark"]
    assert list(doc["rounds"][0]["strategies"]) == ["mic"]


def test_cli_table_subcommand(capsys):
    from repro.attacks.__main__ import main

    assert main(["table"]) == 0
    assert "`watermark`" in capsys.readouterr().out
