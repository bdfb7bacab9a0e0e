"""The metrics contract is enforced both ways.

docs/observability.md embeds the contract table between markers; it must
equal the rendering of ``repro.obs.contract.CONTRACT`` exactly, so a metric
exists in the doc iff it exists in code.  A live observed run may only emit
contracted names — and between the counters chain and the MIC echo, every
contracted name must actually be emitted by something.
"""

from pathlib import Path

import pytest

from repro.core import deploy_mic
from repro.net import FlowEntry, HybridEngine, Match, Network, Output, linear
from repro.obs import (
    ANOMALY_TRIGGERS,
    CONTRACT,
    JOURNEY_EVENTS,
    Observer,
    Profiler,
    contract_names,
    format_contract_table,
    format_journey_table,
    format_trigger_table,
    spec,
)

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
BEGIN = "<!-- contract-table:begin"
END = "<!-- contract-table:end"


def _embedded_table(begin: str, end: str) -> str:
    """A marker-delimited table embedded in docs/observability.md."""
    text = DOC.read_text(encoding="utf-8")
    assert begin in text and end in text, f"{begin} ... {end} markers missing"
    inner = text.split(begin, 1)[1].split(end, 1)[0]
    # Drop the remainder of the begin-marker comment line itself.
    return inner.split("-->", 1)[1].strip()


def doc_table() -> str:
    """The contract table embedded in docs/observability.md."""
    return _embedded_table(BEGIN, END)


def test_doc_table_matches_registry_exactly():
    assert doc_table() == format_contract_table(), (
        "docs/observability.md contract table is stale — regenerate with "
        "`python -m repro.obs contract` and paste between the markers"
    )


def test_contract_names_unique_and_typed():
    names = [m.name for m in CONTRACT]
    assert len(names) == len(set(names))
    for m in CONTRACT:
        assert m.type in {"counter", "gauge", "histogram", "span", "info"}, m.name
        assert m.unit and m.fires, m.name
    assert spec("switch.rule.packets").type == "counter"
    with pytest.raises(KeyError):
        spec("no.such.metric")


def test_table_has_one_row_per_spec():
    rows = [ln for ln in format_contract_table().splitlines() if ln.startswith("| `")]
    assert len(rows) == len(CONTRACT)


def test_journey_doc_table_matches_schema_exactly():
    """The journey event schema is contract-diffed both ways, like the
    metrics table: a kind exists in the doc iff it exists in code."""
    embedded = _embedded_table(
        "<!-- journey-table:begin", "<!-- journey-table:end"
    )
    assert embedded == format_journey_table(), (
        "docs/observability.md journey table is stale — paste the output of "
        "repro.obs.journey.format_journey_table() between the markers"
    )
    rows = [ln for ln in embedded.splitlines() if ln.startswith("| `")]
    assert len(rows) == len(JOURNEY_EVENTS)
    kinds = [spec_.kind for spec_ in JOURNEY_EVENTS]
    assert len(kinds) == len(set(kinds))


def test_trigger_doc_table_matches_contract_exactly():
    embedded = _embedded_table(
        "<!-- trigger-table:begin", "<!-- trigger-table:end"
    )
    assert embedded == format_trigger_table(), (
        "docs/observability.md trigger table is stale — paste the output of "
        "repro.obs.flight.format_trigger_table() between the markers"
    )
    rows = [ln for ln in embedded.splitlines() if ln.startswith("| `")]
    assert len(rows) == len(ANOMALY_TRIGGERS)
    # every trigger's event kind is itself a contracted journey event
    journey_kinds = {spec_.kind for spec_ in JOURNEY_EVENTS}
    for trig in ANOMALY_TRIGGERS:
        assert trig.event_kind in journey_kinds, trig.name


def _observed_names() -> set[str]:
    """Every name emitted across a counters run plus an observed MIC echo."""
    # Scripted chain: exercises data-plane counters + timeline histograms.
    net = Network(linear(3, hosts_per_switch=1), seed=2)
    h1, h3 = net.host("h1"), net.host("h3")
    for sw, out in (("s1", ("s1", "s2")), ("s2", ("s2", "s3")), ("s3", ("s3", "h3"))):
        net.switch(sw).table.install(
            FlowEntry(Match(ip_dst=h3.ip), [Output(net.port(*out))])
        )
    obs = Observer.attach(net)
    obs.start_timeline(0.001)
    # Self-profiler: the prof.* contract entries only fire while hooked.
    Profiler.attach(net)
    # Hybrid leg: the same fabric carries one fluid transfer and a short
    # packet-peer reservation, so the fluid-side names are exercised too.
    eng = HybridEngine(net, epoch_s=0.002)
    chain = ["h1", "s1", "s2", "s3", "h3"]
    eng.start_flow(chain, 50_000)
    eng.end_peer(eng.peer_flow(chain))
    h3.bind("tcp", 80, lambda host, p: None)
    h1.send_packet(h1.make_packet(h3.ip, dport=80, payload_size=100))
    net.run(until=0.01)
    obs.stop_timeline()
    net.run()  # drain the delivery (the stopped timeline no longer reschedules)
    names = obs.snapshot().names()

    # Observed MIC echo: exercises control-plane counters and spans.
    dep = deploy_mic(seed=5, observe=True)
    server = dep.server("h16", 80)
    alice = dep.endpoint("h1")

    def client():
        span = dep.obs.begin_span("bench.setup", protocol="mic-demo")
        stream = yield from alice.connect("h16", service_port=80, n_mns=3)
        span.finish()
        t0 = dep.sim.now
        stream.send(b"y" * 100)
        yield from stream.recv_exactly(100)
        dep.obs.histogram("app.echo_rtt_s", protocol="mic-demo").observe(
            dep.sim.now - t0
        )

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(100)
        stream.send(data)

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(2.0)

    # Fault round: an interior link failure on the live walk fires the
    # mic.repair span; a switch crash + reboot fires mic.resync.
    plan = next(iter(dep.mic.channels.values())).flows[0]
    mid = len(plan.walk) // 2
    dep.net.set_link_state(plan.walk[mid - 1], plan.walk[mid], False)
    dep.run_for(1.0)
    dep.net.set_link_state(plan.walk[mid - 1], plan.walk[mid], True)
    dep.run_for(1.0)
    repaired = next(iter(dep.mic.channels.values())).flows[0]
    crashed = repaired.walk[repaired.mn_positions[0]]
    dep.net.set_switch_state(crashed, False)
    dep.run_for(0.5)
    dep.net.set_switch_state(crashed, True)
    dep.run_for(1.0)
    # Rotation round: an explicit moving-target hop fires the mic.rotate
    # span and moves the anonymity.* rotation counters.
    ch = next(iter(dep.mic.channels.values()))
    assert dep.mic.rotate_flow(ch, 0)
    dep.run_for(1.0)
    names |= dep.obs.snapshot().names()

    # Sharded control plane: mic.shard.* samples plus the failover span —
    # emitted only while two or more shards are deployed, so they need
    # their own leg (the unsharded runs above must never produce them).
    dep = deploy_mic(seed=7, observe=True, shards=2)
    server = dep.server("h16", 80)

    def shard_client():
        yield from dep.endpoint("h1").connect("h16", service_port=80, n_mns=3)

    def shard_srv():
        yield server.accept()

    dep.sim.process(shard_client())
    dep.sim.process(shard_srv())
    dep.run_for(2.0)
    victim = next(
        i for i, shard in enumerate(dep.mic.shards) if shard.channels
    )
    dep.mic.crash_shard(victim)
    dep.run_for(1.0)
    names |= dep.obs.snapshot().names()
    return names


def test_live_runs_emit_exactly_the_contract():
    emitted = _observed_names()
    contracted = set(contract_names())
    assert emitted <= contracted, f"uncontracted metrics: {emitted - contracted}"
    assert contracted <= emitted, f"dead contract entries: {contracted - emitted}"
