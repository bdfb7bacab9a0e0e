"""The self-profiling layer: attribution math, contract, and no side effects.

Three properties carry the layer:

* **attribution is exact** — with an injected clock, self/cumulative time
  splits are arithmetic, not approximate;
* **the subsystem contract is doc-diffed both ways** — a subsystem exists
  in docs/observability.md iff it exists in ``PROF_SUBSYSTEMS``;
* **profiling never perturbs the run** — a profiled trace is
  byte-identical to an unprofiled one, frame/counter *counts* are
  deterministic per seed (wall-ns are not), and a sanitized chaos run
  stays clean with profiling enabled.
"""

import ast
import itertools
import json
import random
from pathlib import Path

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.faults import run_chaos, scorecard_json
from repro.net import (
    FlowEntry,
    FlowTable,
    Match,
    Network,
    Output,
    Packet,
    ip,
    linear,
    mac,
)
from repro.obs import (
    PROF_SUBSYSTEMS,
    MetricsSnapshot,
    JourneyRecorder,
    Observer,
    Profiler,
    contract_names,
    format_prof_table,
    format_prof_top,
    to_json,
    to_perfetto,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.prof import ProfileReport, _lookup
from tests.profile_counts import GOLDEN as COUNTS_GOLDEN, chaos_counts, counts_doc, render
from tests.watchers import watchers

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------
def test_prof_doc_table_matches_registry_exactly():
    text = DOC.read_text(encoding="utf-8")
    begin, end = "<!-- prof-table:begin", "<!-- prof-table:end"
    assert begin in text and end in text
    inner = text.split(begin, 1)[1].split(end, 1)[0]
    embedded = inner.split("-->", 1)[1].strip()
    assert embedded == format_prof_table(), (
        "docs/observability.md prof table is stale — paste the output of "
        "repro.obs.prof.format_prof_table() between the markers"
    )


def test_prof_subsystem_names_unique_and_disjoint_from_metrics():
    names = [s.name for s in PROF_SUBSYSTEMS]
    assert len(names) == len(set(names))
    # subsystem names are frame labels, not metric names — they must not
    # collide with the metrics contract's namespace
    assert not set(names) & contract_names()
    for s in PROF_SUBSYSTEMS:
        assert s.owner and s.measures, s.name


# ---------------------------------------------------------------------------
# attribution math (injected clock)
# ---------------------------------------------------------------------------
class _ScriptedClock:
    """Returns the next value from a list; the profiler's only time source."""

    def __init__(self, values):
        self._values = iter(values)

    def __call__(self):
        return next(self._values)


def test_nested_frames_split_self_and_cumulative_exactly():
    # reads: t0=0, enter a=100, enter b=200, exit b=300, exit a=400,
    # report window=500
    prof = Profiler(clock=_ScriptedClock([0, 100, 200, 300, 400, 500]))
    prof.enter("a")
    prof.enter("b")
    prof.exit()
    prof.exit()
    report = prof.report()
    rows = {r["name"]: r for r in report.subsystems}
    assert rows["b"] == {
        "name": "b", "calls": 1, "self_ns": 100, "cum_ns": 100, "counters": {},
    }
    # a ran 100..400 (cum 300) but 100 of that belongs to b
    assert rows["a"]["cum_ns"] == 300
    assert rows["a"]["self_ns"] == 200
    assert report.window_ns == 500
    assert report.attributed_ns == 300  # disjoint self times: 200 + 100
    assert report.attributed_fraction == pytest.approx(0.6)


def test_open_frames_contribute_nothing_until_exit():
    prof = Profiler(clock=_ScriptedClock([0, 10, 20]))
    prof.enter("open")
    report = prof.report()  # reads 20 for the window
    assert report.subsystems == []
    assert report.window_ns == 20


def test_region_contextmanager_balances_on_exception():
    prof = Profiler(clock=_ScriptedClock([0, 10, 50, 60]))
    with pytest.raises(RuntimeError):
        with prof.region("risky"):
            raise RuntimeError("boom")
    assert prof.calls["risky"] == 1
    assert prof._stack == []


def test_counts_fingerprint_excludes_wall_ns():
    prof = Profiler(clock=_ScriptedClock(itertools.count(0, 7)))
    with prof.region("x"):
        prof.count("x", "hits", 3)
    counts = prof.report().counts()
    assert counts == {"x": {"calls": 1, "counters": {"hits": 3}}}


def test_report_doc_roundtrip():
    prof = Profiler(clock=_ScriptedClock([0, 1, 2, 3]))
    with prof.region("y"):
        pass
    doc = prof.report().to_doc()
    back = ProfileReport.from_doc(doc)
    assert back.to_doc() == doc
    assert "self-profile:" in format_prof_top(doc)


def test_sample_every_validation():
    with pytest.raises(ValueError):
        Profiler(sample_every=-1)


# ---------------------------------------------------------------------------
# no side effects: byte-identity and determinism
# ---------------------------------------------------------------------------
def _wired_linear3(seed):
    """``linear(3)`` with h1 -> h3 wired and a sink on h3; returns the net."""
    net = Network(linear(3, hosts_per_switch=1), seed=seed)
    h3 = net.host("h3")
    for sw, out in (("s1", ("s1", "s2")), ("s2", ("s2", "s3")),
                    ("s3", ("s3", "h3"))):
        net.switch(sw).table.install(
            FlowEntry(Match(ip_dst=h3.ip), [Output(net.port(*out))])
        )
    h3.bind("tcp", 80, lambda host, p: None)
    return net


def _burst(net, n=20):
    """Send ``n`` packets h1 -> h3 and run until they land."""
    h1, h3 = net.host("h1"), net.host("h3")
    for i in range(n):
        net.sim.call_at(
            net.sim.now + i * 1e-4,
            (lambda j: lambda: h1.send_packet(
                h1.make_packet(h3.ip, sport=1000 + j, dport=80, payload_size=100)
            ))(i),
        )
    net.run()


def _burst_run(profiled: bool):
    """A seeded 3-switch burst; returns (journey rows, final time, profiler)."""
    net = _wired_linear3(seed=11)
    journey = JourneyRecorder.attach(net)
    prof = Profiler.attach(net, enabled=profiled, sample_every=10)
    _burst(net, 50)
    assert net.host("h3").packets_received == 50
    return journey.rows(), net.sim.now, prof


def test_profiled_run_is_byte_identical():
    plain, t_plain, none_prof = _burst_run(profiled=False)
    seen, t_seen, prof = _burst_run(profiled=True)
    assert none_prof is None  # enabled=False is statically dead
    assert t_plain == t_seen
    # every event of every packet: host.tx, link.tx, then (switch.ingress,
    # switch.egress, link.tx) at each of the three switches, host.rx
    assert plain == seen and len(plain) == 50 * 12
    # ... and the profiled run actually profiled something (not vacuous).
    report = prof.report()
    rows = {r["name"] for r in report.subsystems}
    assert {"sim.run", "sim.dispatch", "flowtable.lookup"} <= rows
    assert report.dispatches > 0
    assert report.samples and report.samples[0]["dispatches"] == 10


def test_bracketed_lookup_answers_as_the_bare_one_and_counts_each_tier():
    """A hooked table answers every lookup exactly as a bare one, with the
    same hit/miss counters, and counts which tier answered; an unhooked
    table's ``lookup`` is the class's own method."""
    rng = random.Random(5)
    hosts = [ip(f"10.1.0.{i}") for i in range(1, 9)]
    bare, profiled = FlowTable(cache_size=4), FlowTable(cache_size=4)
    for table in (bare, profiled):
        for i, dst in enumerate(hosts[:6]):
            table.install(FlowEntry(Match(ip_dst=dst), [Output(i)], cookie=i + 1))
    assert "lookup" not in vars(bare) and bare.lookup.__func__ is FlowTable.lookup
    prof = Profiler()
    prof._wrap("lookup", _lookup, [profiled])
    assert "lookup" in vars(profiled)
    packets = [
        Packet(eth_src=mac(1), eth_dst=mac(2), ip_src=hosts[0], ip_dst=rng.choice(hosts))
        for _ in range(200)
    ]
    for p in packets:
        plain, seen = bare.lookup(p, 1), profiled.lookup(p, 1)
        assert (plain and plain.cookie) == (seen and seen.cookie)
    assert (bare.cache_hits, bare.cache_misses) == (
        profiled.cache_hits, profiled.cache_misses)
    assert 0 < profiled.cache_hits and 0 < profiled.cache_misses
    # a stale resolved version re-classifies through the bracketed lookup
    profiled.apply(packets[0].copy(), 1, None, profiled.version - 1)
    assert prof.report().counts()["flowtable.lookup"] == {
        "calls": len(packets) + 1,
        "counters": {
            "path.cached": profiled.cache_hits,
            "path.indexed": profiled.cache_misses,
        },
    }


def test_profiler_hook_swaps_every_switch_lookup():
    net = Network(linear(3, hosts_per_switch=1), seed=0)
    bare = Network(linear(3, hosts_per_switch=1), seed=0)
    Profiler.attach(net)
    for sw, plain in zip(net.switches(), bare.switches()):
        assert "lookup" in vars(sw.table)
        assert "lookup" not in vars(plain.table)
        assert plain.table.lookup.__func__ is FlowTable.lookup
    assert "run" in vars(net.sim) and "run" not in vars(bare.sim)


def test_hooking_twice_adds_no_frame_and_a_second_profiler_takes_over():
    net = _wired_linear3(seed=2)
    Observer.attach(net)
    first = Profiler.attach(net)
    first.hook(net)  # the same profiler again: no second bracket
    _burst(net)
    counts = first.report().counts()
    lookups = sum(sw.table.cache_hits + sw.table.cache_misses for sw in net.switches())
    assert counts["flowtable.lookup"]["calls"] == lookups == 3 * 20
    assert counts["sim.run"]["calls"] == 1
    assert counts["obs.hook"] == {"calls": 20, "counters": {"host_rx": 20}}
    second = Profiler.attach(net)
    _burst(net)
    assert first.report().counts() == counts  # replaced: it sees nothing new
    again = second.report().counts()
    assert again["sim.run"]["calls"] == 1
    assert again["flowtable.lookup"]["calls"] == 3 * 20
    assert again["obs.hook"]["calls"] == 20
    assert net.observer.profiler is second
    # the first profiler's links were spliced out, not left passing through
    assert all(watchers(sw.table, "lookup") == [second] for sw in net.switches())
    assert watchers(net.sim, "step") == [second]


def test_shard_churn_profile_routes_through_the_mc():
    """``run_shard_churn`` hooks the MC (``hook_mic``): its profile keeps
    ``controlplane.route`` with the mods it routed."""
    from repro.bench import run_shard_churn

    r = run_shard_churn(k=4, shards=2, clients=2, rounds=1, seed=0, profile=True)
    rows = {row["name"]: row for row in r.profile["subsystems"]}
    route = rows["controlplane.route"]
    assert route["calls"] > 0
    assert route["counters"]["mods.routed"] > 0
    assert route["counters"]["requests.routed"] > 0
    assert route["counters"].get("mods.remote", 0) == r.remote_installs


def test_only_the_event_kernel_carries_profiler_wiring():
    """Outside ``obs/prof.py`` nothing in ``src/`` reads a ``_prof`` slot
    (the event kernel included: the profiler wraps ``sim.step`` from
    outside), only the observer (its ``__init__`` and the snapshot) reads
    ``.profiler``, and no module defines a ``set_profiler`` or a
    ``*_profiled`` twin or drives a profiler reached through such a slot."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    allowed = {
        ("obs/observer.py", "profiler"): {"__init__", "_snapshot_prof"},
    }
    found = []

    def visit(node, rel, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "set_profiler" or node.name.endswith("_profiled"):
                found.append(f"{rel}: defines {node.name}")
            where = node.name
        elif isinstance(node, ast.Attribute) and node.attr in ("_prof", "profiler"):
            if where not in allowed.get((rel, node.attr), ()):
                found.append(f"{rel}:{node.lineno} {where} reads .{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, rel, where)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel != "obs/prof.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), rel, "<module>")
    assert found == []


@pytest.fixture(scope="module")
def chaos_trio():
    """Three identical seeded chaos runs: profiled x2, profiled+sanitized."""
    prof_a = Profiler(sample_every=500)
    card_a, _ = run_chaos(seed=0, profiler=prof_a)
    prof_b = Profiler(sample_every=500)
    card_b, _ = run_chaos(seed=0, profiler=prof_b)
    san = SimSanitizer()
    prof_c = Profiler(sample_every=500)
    card_c, _ = run_chaos(seed=0, profiler=prof_c, sanitizer=san)
    return (card_a, prof_a), (card_b, prof_b), (card_c, prof_c, san)


def test_chaos_frame_counts_are_deterministic(chaos_trio):
    (card_a, prof_a), (card_b, prof_b), _ = chaos_trio
    assert scorecard_json(card_a) == scorecard_json(card_b)
    # wall-ns differ run to run; every count must not
    assert prof_a.report().counts() == prof_b.report().counts()
    assert prof_a.dispatches == prof_b.dispatches
    assert [s["sim_time_s"] for s in prof_a.samples] == [
        s["sim_time_s"] for s in prof_b.samples
    ]


def test_work_counters_match_the_committed_golden(chaos_trio):
    """The exact work-counter gate: calls and counters of four seeded runs
    (seed-0 chaos, its 4-shard twin, a small hybrid run, a pre-wired
    fat_tree(4)) are the committed ones.  A change that moves one
    regenerates the file on purpose."""
    (_card_a, prof_a), _, _ = chaos_trio
    doc = counts_doc(chaos=chaos_counts(profiler=prof_a))
    assert render(doc) == COUNTS_GOLDEN.read_text()


def test_sanitized_chaos_run_stays_clean_with_profiling(chaos_trio):
    (card_a, prof_a), _, (card_c, prof_c, san) = chaos_trio
    assert san.findings == []
    # neither layer perturbs the other: same card, same counts
    assert scorecard_json(card_c) == scorecard_json(card_a)
    assert prof_c.report().counts() == prof_a.report().counts()


# ---------------------------------------------------------------------------
# snapshot / exporter / CLI / perfetto surfaces
# ---------------------------------------------------------------------------
def _observed_profiled_snapshot():
    net = Network(linear(2, hosts_per_switch=1), seed=3)
    h1, h2 = net.host("h1"), net.host("h2")
    net.switch("s1").table.install(
        FlowEntry(Match(ip_dst=h2.ip), [Output(net.port("s1", "s2"))])
    )
    net.switch("s2").table.install(
        FlowEntry(Match(ip_dst=h2.ip), [Output(net.port("s2", "h2"))])
    )
    obs = Observer.attach(net)
    Profiler.attach(net, sample_every=5)
    h2.bind("tcp", 80, lambda host, p: None)
    for i in range(10):
        net.sim.call_at(
            i * 1e-3,
            (lambda j: lambda: h1.send_packet(
                h1.make_packet(h2.ip, sport=2000 + j, dport=80,
                               payload_size=64)
            ))(i),
        )
    net.run()
    return obs.snapshot()


def test_snapshot_carries_profile_section_and_samples():
    snap = _observed_profiled_snapshot()
    assert snap.version == MetricsSnapshot.VERSION == 2
    assert snap.profile is not None
    assert snap.total("prof.calls", subsystem="sim.dispatch") > 0
    assert snap.total("prof.cum_ns", subsystem="flowtable.lookup") >= snap.total(
        "prof.self_ns", subsystem="flowtable.lookup"
    )
    doc = json.loads(to_json(snap))
    assert doc["version"] == 2
    assert doc["profile"]["dispatches"] == snap.profile["dispatches"]


def test_unprofiled_snapshot_has_no_profile_key():
    snap = MetricsSnapshot(sim_time_s=1.0)
    doc = json.loads(to_json(snap))
    assert doc["version"] == 2
    assert "profile" not in doc
    assert not any(s.name.startswith("prof.") for s in snap.samples)


def test_summarize_degrades_gracefully_on_v1_snapshot(tmp_path, capsys):
    """Pre-profiling snapshots (no version, no profile) must still render."""
    v1 = {"sim_time_s": 0.5, "samples": [
        {"name": "ctrl.packet_in.count", "labels": {}, "value": 3.0},
    ]}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(v1))
    assert obs_main(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "schema v1" in out
    assert "ctrl.packet_in.count" in out
    assert "self-profile" not in out


def test_summarize_and_prof_top_render_v2_profile(tmp_path, capsys):
    snap = _observed_profiled_snapshot()
    path = tmp_path / "snap.json"
    path.write_text(to_json(snap))
    assert obs_main(["summarize", str(path)]) == 0
    assert "self-profile:" in capsys.readouterr().out
    assert obs_main(["prof-top", str(path)]) == 0
    out = capsys.readouterr().out
    assert "sim.dispatch" in out and "flowtable.lookup" in out


def test_prof_top_rejects_profileless_snapshot(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"sim_time_s": 0.0, "samples": []}))
    assert obs_main(["prof-top", str(path)]) == 1
    assert "no profile section" in capsys.readouterr().err


def test_perfetto_emits_counter_tracks_from_profile():
    snap = _observed_profiled_snapshot()
    doc = {"journeys": [], "profile": snap.profile}
    trace = to_perfetto(doc)
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    assert counters, "profile samples produced no counter events"
    names = {e["name"] for e in counters}
    assert "heap_depth" in names and "dispatches" in names
    assert any(n.startswith("cum_ms.") for n in names)
    # the self-profile process track is named
    meta = [e for e in trace["traceEvents"]
            if e["ph"] == "M" and e["args"].get("name") == "self-profile"]
    assert len(meta) == 1


def test_perfetto_without_profile_emits_no_counters():
    trace = to_perfetto({"journeys": []})
    assert not any(e["ph"] == "C" for e in trace["traceEvents"])


# ---------------------------------------------------------------------------
# profiled hybrid scenario (the bench's engine, unit-sized)
# ---------------------------------------------------------------------------
def test_profiled_hybrid_scenario_attributes_most_of_the_run():
    from repro.bench import run_hybrid_scenario

    r = run_hybrid_scenario(
        k=4, channels=60, payload_bytes=200_000, sample_rate=0.05,
        seed=2, profile=True, time_limit_s=30.0,
    )
    assert r.profile is not None
    # the bench asserts >= 0.90 on real scale; small runs carry relatively
    # more un-attributed result bookkeeping, so the unit bar is 0.80
    assert r.profile["attributed_fraction"] >= 0.80
    rows = {row["name"]: row for row in r.profile["subsystems"]}
    assert rows["scenario.setup"]["calls"] == 1
    assert rows["hybrid.epoch"]["calls"] >= 1
    assert rows["fluid.solve"]["counters"]["flows.solved"] > 0
    counters = rows["fluid.solve"]["counters"]
    # a round sweeps at least one active entry, and at most every flow×link
    # entry of its solve: no rate caps, and a fat_tree(4) path has <= 6 links
    assert 0 < counters["rounds"] <= counters["entries.swept"]
    assert counters["entries.swept"] <= (
        6 * counters["flows.solved"] * counters["rounds"]
    )
    # epoch frames contain their phases: cum >= the phases' cum
    assert rows["hybrid.epoch"]["cum_ns"] >= (
        rows["hybrid.measure"]["cum_ns"] + rows["hybrid.advance"]["cum_ns"]
    )
