"""Self-check of the benchmark harness: ``pytest benchmarks/perf/test_selfcheck.py``.

Runs every workload once at smoke size through the real command and holds
its output against ``BENCHMARK.json``: every listed name is printed with
its unit, nothing unlisted is, and the JSON line carries exactly them.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = run.load_spec()
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")


def _smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    assert "NOT comparable" in lines[0]
    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
    return printed, json.loads(lines[-1])


def test_spec_lists_what_the_worker_measures():
    assert [m["name"] for m in SPEC["end_to_end"]] == worker.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == worker.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == worker.unit_of(m["name"])
    assert {w["name"] for w in SPEC["workloads"]} == set(run.NOMINAL_REP_S)
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_harness_uses_exported_layer_apis_only():
    assert run.import_selfcheck() == []


@pytest.mark.parametrize("workload", sorted(run.NOMINAL_REP_S))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_listed_metric_and_nothing_else(workload, trace):
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    printed, last = _smoke(workload, trace)
    assert printed == want
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
