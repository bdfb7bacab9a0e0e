"""The ``python -m repro.obs`` CLI: contract, demo, summarize."""

import json

import pytest

from repro.obs import contract_names, format_contract_table
from repro.obs.__main__ import main


def test_contract_prints_the_table(capsys):
    assert main(["contract"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == format_contract_table()


@pytest.fixture(scope="module")
def demo_exports(tmp_path_factory):
    """One demo run exporting its JSON snapshot (shared across tests)."""
    d = tmp_path_factory.mktemp("obs-cli")
    paths = {"json": str(d / "snap.json")}
    rc = main([
        "demo", "--horizon", "2", "--period", "0", "--json", paths["json"],
    ])
    assert rc == 0
    return paths


def test_demo_prints_summary(capsys, demo_exports):
    main(["demo", "--horizon", "2", "--period", "0"])
    out = capsys.readouterr().out
    assert "observability summary @" in out
    assert "app.echo_rtt_s" in out
    assert "mic.establish" in out


def test_demo_json_export_is_contracted(demo_exports):
    doc = json.loads(open(demo_exports["json"], encoding="utf-8").read())
    assert doc["sim_time_s"] == pytest.approx(2.0)
    names = {s["name"] for s in doc["samples"]}
    names |= {h["name"] for h in doc["histograms"]}
    names |= {r["name"] for r in doc["spans"]}
    assert names <= set(contract_names())
    assert any(r["name"] == "mic.connect" for r in doc["spans"])


def test_summarize_round_trips(capsys, demo_exports):
    assert main(["summarize", demo_exports["json"]]) == 0
    out = capsys.readouterr().out
    assert "snapshot @ t=2.000000s" in out
    assert "switch.rule.packets" in out
    assert "span mic.connect" in out


@pytest.fixture(scope="module")
def journey_exports(tmp_path_factory):
    """One journey run exporting the dump and the Perfetto trace."""
    d = tmp_path_factory.mktemp("obs-journey")
    paths = {
        "dump": str(d / "journeys.json"),
        "perfetto": str(d / "trace.json"),
    }
    rc = main([
        "journey", "--horizon", "5", "--decoys", "2",
        "--dump", paths["dump"], "--perfetto", paths["perfetto"],
    ])
    assert rc == 0
    return paths


def test_journey_prints_hop_table(capsys, journey_exports):
    main(["journey", "--horizon", "5", "--decoys", "0"])
    out = capsys.readouterr().out
    assert "journey dump @" in out
    assert "delivered: h16" in out
    assert "top rewrites" in out


def test_journey_dump_document(journey_exports):
    doc = json.loads(open(journey_exports["dump"], encoding="utf-8").read())
    assert doc["journeys"], "journey dump is empty"
    kinds = {e["kind"] for j in doc["journeys"] for e in j["events"]}
    assert "switch.rewrite" in kinds and "host.rx" in kinds
    # the flight recorder rode along and stayed silent on the healthy run
    assert doc["flight_dumps"] == []


def test_journey_perfetto_export_is_trace_event_json(journey_exports):
    doc = json.loads(open(journey_exports["perfetto"], encoding="utf-8").read())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"X", "M", "i", "s", "f"} <= phases


def test_summarize_detects_journey_dumps(capsys, journey_exports):
    assert main(["summarize", journey_exports["dump"]]) == 0
    out = capsys.readouterr().out
    assert "journey dump @" in out
    assert "worst queue waits" in out
