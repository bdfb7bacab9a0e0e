"""The perf trajectory: committed entries validate, and compare gates drift.

The committed ``benchmarks/trajectory/`` directory is part of the repo's
contract — every entry must pass the schema, and ``compare`` must flag a
synthetic regression past budget (that is what the CI perf job relies on).
"""

import json
from pathlib import Path

import pytest

from repro.bench import validate_entry
from repro.bench.__main__ import main as bench_main
from repro.bench.trajectory import (
    REGRESSION_AXES,
    REQUIRED_FIELDS,
    compare,
    format_entry,
    load_trajectory,
    main as trajectory_main,
)

TRAJECTORY_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "trajectory"


def _entry(**overrides):
    doc = {
        "bench": "hybrid_scale",
        "trajectory_entry": 8,
        "quick": True,
        "params": {"k": 8, "channels": 2000},
        "wall_s": 10.0,
        "peak_rss_mb": 100.0,
        "channels_per_s": 200.0,
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------
def test_committed_trajectory_validates():
    entries = load_trajectory(TRAJECTORY_DIR)
    assert len(entries) >= 2, "the committed trajectory lost its history"
    numbers = [doc["trajectory_entry"] for _p, doc in entries]
    assert numbers == sorted(numbers)
    # the current entry carries a profile section attributing >= 90%
    current = [doc for _p, doc in entries if doc["trajectory_entry"] == 16]
    assert current, "BENCH_16 missing from the committed trajectory"
    for doc in current:
        assert doc["profile"]["attributed_fraction"] >= 0.90


def test_validate_accepts_minimal_and_reports_each_problem():
    assert validate_entry(_entry()) == []
    problems = validate_entry({"bench": 3}, source="x.json")
    missing = {k for k in REQUIRED_FIELDS if k != "bench"}
    assert len(problems) == len(missing) + 1  # each absent key + bad type
    assert all(p.startswith("x.json: ") for p in problems)


def test_validate_rejects_bool_masquerading_as_number():
    problems = validate_entry(_entry(wall_s=True))
    assert problems and "wall_s" in problems[0]


def test_validate_rejects_negative_axes_and_bad_profile():
    assert validate_entry(_entry(wall_s=-1.0))
    assert validate_entry(_entry(profile="not-a-dict"))
    assert validate_entry(_entry(profile={"window_ns": 1}))  # missing keys
    ok_profile = {
        "window_ns": 10, "attributed_ns": 9, "attributed_fraction": 0.9,
        "subsystems": [{"name": "sim.dispatch"}],
    }
    assert validate_entry(_entry(profile=ok_profile)) == []


def test_load_trajectory_raises_on_invalid_entry(tmp_path):
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"bench": "x"}))
    with pytest.raises(ValueError, match="missing required key"):
        load_trajectory(tmp_path)


def test_load_trajectory_ignores_non_entries(tmp_path):
    (tmp_path / "BENCH_2.json").write_text(json.dumps(_entry(trajectory_entry=2)))
    (tmp_path / "notes.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")
    entries = load_trajectory(tmp_path)
    assert [p.name for p, _d in entries] == ["BENCH_2.json"]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def test_compare_within_budget_is_clean():
    regressions, lines = compare(_entry(), _entry(wall_s=11.0), budget_pct=25)
    assert regressions == []
    assert len(lines) == len(REGRESSION_AXES)


def test_compare_flags_synthetic_regressions_per_axis():
    slow = _entry(wall_s=20.0)  # +100% past a 25% budget
    regressions, _ = compare(_entry(), slow, budget_pct=25)
    assert len(regressions) == 1 and "wall_s" in regressions[0]
    hungry = _entry(peak_rss_mb=200.0)
    regressions, _ = compare(_entry(), hungry, budget_pct=25)
    assert len(regressions) == 1 and "peak_rss_mb" in regressions[0]
    slower_rate = _entry(channels_per_s=100.0)  # -50% throughput
    regressions, _ = compare(_entry(), slower_rate, budget_pct=25)
    assert len(regressions) == 1 and "channels_per_s" in regressions[0]
    # throughput gains are never regressions
    regressions, _ = compare(
        _entry(), _entry(channels_per_s=900.0), budget_pct=25
    )
    assert regressions == []


def test_compare_refuses_different_workloads_unless_forced():
    other = _entry(params={"k": 16, "channels": 10_000})
    with pytest.raises(ValueError, match="not comparable"):
        compare(_entry(), other, budget_pct=25)
    regressions, _ = compare(_entry(), other, budget_pct=25, force=True)
    assert regressions == []


def test_format_entry_is_one_line():
    line = format_entry(_entry())
    assert "\n" not in line and "hybrid_scale" in line


# ---------------------------------------------------------------------------
# CLI (dispatched through python -m repro.bench trajectory ...)
# ---------------------------------------------------------------------------
def test_cli_dispatch_and_exit_codes(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_entry()))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_entry(wall_s=10.5)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_entry(wall_s=30.0)))
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps(_entry(quick=False)))

    assert bench_main(
        ["trajectory", "compare", str(base), str(good), "--budget", "25"]
    ) == 0
    assert "within budget" in capsys.readouterr().out

    assert trajectory_main(
        ["compare", str(base), str(bad), "--budget", "25"]
    ) == 1
    assert "regressed past budget" in capsys.readouterr().out

    assert trajectory_main(["compare", str(base), str(alien)]) == 2
    assert "not comparable" in capsys.readouterr().out
    assert trajectory_main(
        ["compare", str(base), str(alien), "--force"]
    ) == 0
    capsys.readouterr()

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"bench": "x"}))
    assert trajectory_main(["compare", str(base), str(invalid)]) == 1
    assert "invalid entry" in capsys.readouterr().out


def test_cli_validate_and_show(tmp_path, capsys):
    assert trajectory_main(["validate", str(TRAJECTORY_DIR)]) == 0
    capsys.readouterr()
    assert trajectory_main(["show", str(TRAJECTORY_DIR)]) == 0
    out = capsys.readouterr().out
    assert "BENCH_7.json" in out and "BENCH_8.json" in out

    empty = tmp_path / "empty"
    empty.mkdir()
    assert trajectory_main(["validate", str(empty)]) == 1
    assert "no BENCH_" in capsys.readouterr().out
