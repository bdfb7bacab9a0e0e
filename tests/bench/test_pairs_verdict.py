"""The claim verdict ``benchmarks/pairs.py`` prints, on synthetic documents."""

import importlib.util
import pathlib

import pytest

PAIRS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", PAIRS)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def docs(values):
    """Worker-shaped documents carrying one ``setup_s`` value each."""
    return [{"setup_s": v, "sim_digest": "d", "failed": 0} for v in values]


def verdict(base, head, metric="setup_s"):
    return pairs.verdict([d[metric] for d in docs(base)], [d[metric] for d in docs(head)])


BASE = [0.090, 0.092, 0.088, 0.091, 0.089, 0.093, 0.090, 0.087, 0.094, 0.091]


def test_ten_wins_by_more_than_the_base_iqr_hold():
    v = verdict(BASE, [x - 0.015 for x in BASE])
    assert (v["wins"], v["pairs"], v["holds"]) == (10, 10, True)
    assert v["gap"] > v["base_iqr"] > 0


def test_nine_of_ten_is_enough_eight_is_not():
    nine = [x - 0.015 for x in BASE[:9]] + [BASE[9] + 0.001]
    assert verdict(BASE, nine)["holds"]
    eight = [x - 0.015 for x in BASE[:8]] + [x + 0.001 for x in BASE[8:]]
    v = verdict(BASE, eight)
    assert v["wins"] == 8 and v["gap"] > v["base_iqr"] and not v["holds"]


def test_a_gap_inside_the_base_iqr_does_not_hold():
    v = verdict(BASE, [x - 0.0005 for x in BASE])
    assert v["wins"] == 10 and 0 < v["gap"] <= v["base_iqr"] and not v["holds"]


def test_a_slower_head_does_not_hold():
    v = verdict(BASE, [x + 0.015 for x in BASE])
    assert v["wins"] == 0 and v["gap"] < 0 and not v["holds"]


def test_quartiles_of_one_run_are_that_run():
    assert pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)
    v = verdict([0.5], [0.4])
    assert (v["wins"], v["pairs"], v["base_iqr"], v["holds"]) == (1, 1, 0.0, True)
    assert v["gap"] == pytest.approx(0.1)
