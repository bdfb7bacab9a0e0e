"""The JSON snapshot exporter and the histogram buckets it carries."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    MetricsSnapshot,
    SpanLog,
    to_json,
    write_json,
)


@pytest.fixture
def snap():
    """A small hand-built snapshot covering all four metric kinds."""
    s = MetricsSnapshot(sim_time_s=1.5)
    s.add("port.tx.packets", 7, node="h1", port=0)
    s.add("link.queue.bytes", 120, channel="h1[0]->s1[1]")
    s.add("ctrl.packet_in.count", 3)
    hist = Histogram()
    for v in (0.001, 0.002, 0.003):
        hist.observe(v)
    s.histograms[("net.packet_latency_s", (("host", "h3"),))] = hist.summary()
    log = SpanLog()
    log.record("mic.establish", 0.1, 0.2, channel="ch-1")
    s.spans = list(log)
    return s


def test_json_round_trips(snap, tmp_path):
    doc = json.loads(to_json(snap))
    assert doc["sim_time_s"] == 1.5
    by_name = {d["name"]: d for d in doc["samples"]}
    assert by_name["port.tx.packets"]["value"] == 7.0
    assert by_name["port.tx.packets"]["labels"] == {"node": "h1", "port": "0"}
    assert by_name["ctrl.packet_in.count"]["labels"] == {}
    (h,) = doc["histograms"]
    assert h["name"] == "net.packet_latency_s"
    assert h["summary"]["count"] == 3.0
    assert h["summary"]["p50"] == 0.002
    (r,) = doc["spans"]
    assert r["name"] == "mic.establish"
    assert r["duration_s"] == pytest.approx(0.1)
    # write_json writes the same document.
    path = tmp_path / "snap.json"
    write_json(snap, str(path))
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def test_summary_carries_cumulative_buckets():
    hist = Histogram()
    for v in (0.0005, 0.0015, 0.0015, 0.4):
        hist.observe(v)
    summary = hist.summary()
    buckets = summary["buckets"]
    assert len(buckets) == len(DEFAULT_BUCKET_BOUNDS)
    les = [le for le, _ in buckets]
    assert les == sorted(les)
    cums = [c for _, c in buckets]
    assert cums == sorted(cums)  # cumulative: monotone non-decreasing
    assert cums[-1] == hist.count  # everything fits under 10 s here
    by_le = dict(map(tuple, buckets))
    assert by_le[0.001] == 1  # only the 0.5 ms observation
    assert by_le[0.002] == 3
    assert by_le[0.5] == 4
    # opt out for scalar-only consumers
    assert "buckets" not in hist.summary(bucket_bounds=None)


def test_default_bucket_bounds_are_a_1_2_5_ladder():
    assert list(DEFAULT_BUCKET_BOUNDS) == sorted(DEFAULT_BUCKET_BOUNDS)
    assert DEFAULT_BUCKET_BOUNDS[0] == 1e-6
    assert DEFAULT_BUCKET_BOUNDS[-1] == 10.0
    assert 2e-3 in DEFAULT_BUCKET_BOUNDS and 5e-2 in DEFAULT_BUCKET_BOUNDS


def test_empty_snapshot_exports(tmp_path):
    empty = MetricsSnapshot(sim_time_s=0.0)
    assert json.loads(to_json(empty))["samples"] == []
