"""Shared helpers for the figure-reproduction benchmarks.

Each bench saves its rendered table under ``benchmarks/results/`` so that
EXPERIMENTS.md's paper-vs-measured records can be refreshed from one run.
Under ``BENCH_QUICK=1`` a table is saved as ``<name>.quick.txt`` (gitignored)
instead, so a trimmed sweep never overwrites the tracked full-sweep table.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: suffix of a saved table's name: quick sweeps keep off the tracked files
SUFFIX = ".quick" if os.environ.get("BENCH_QUICK") else ""


@pytest.fixture()
def save_table():
    """Persist a FigureResult table and echo it to the terminal."""

    def _save(name: str, result) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.format_table()
        (RESULTS_DIR / f"{name}{SUFFIX}.txt").write_text(text + "\n")
        (RESULTS_DIR / f"{name}{SUFFIX}.json").write_text(result.to_json())
        print("\n" + text)

    return _save
