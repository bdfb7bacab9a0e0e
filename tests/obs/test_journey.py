"""Per-packet journey tracing: exactness, sampling, ground truth.

The heart of the PR 3 acceptance criteria: on a scripted 3-MN channel every
hop's old→new rewrite tuple must equal the MC's installed rules, multicast
decoy copies must be labeled exactly (in the journey tree, never in
``delivered_uids``), and sampling must be deterministic without touching
the RNG.
"""

import gc
import json

import pytest

from repro.core import deploy_mic
from repro.net import (
    FlowEntry,
    Group,
    GroupEntry,
    Match,
    Network,
    Output,
    SetField,
    linear,
)
from repro.obs import (
    JOURNEY_EVENTS,
    FlightRecorder,
    JourneyEvent,
    JourneyRecorder,
    format_hop_table,
    journey_event_kinds,
    journeys_to_json,
)
from repro.obs.journey import row_column
from tests.recording_scenario import GOLDEN, read_back, run_scenario

MESSAGE = b"z" * 200


def _addr_tuple(a):
    return (str(a.src_ip), str(a.dst_ip), a.sport, a.dport, a.mpls)


def _mic_echo(journey_kwargs=None, decoys=0, seed=13):
    """A journey-traced MIC echo h1 <-> h16; intent armed mid-run."""
    dep = deploy_mic(seed=seed, journey=True, journey_kwargs=journey_kwargs)
    server = dep.server("h16", 80)
    alice = dep.endpoint("h1")

    def client():
        stream = yield from alice.connect(
            "h16", service_port=80, n_mns=3, decoys=decoys
        )
        dep.journey.arm_intent(dep.mic)
        stream.send(MESSAGE)
        yield from stream.recv_exactly(len(MESSAGE))

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(len(MESSAGE))
        stream.send(data)

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(5.0)
    return dep


# ---------------------------------------------------------------------------
# exact rewrite chains on a 3-MN channel
# ---------------------------------------------------------------------------


def test_exact_rewrite_chain_matches_installed_rules():
    """Every forward-delivered journey's hop-by-hop old→new tuples equal the
    MC's planned (and installed) per-MN rewrites, in order."""
    dep = _mic_echo()
    plan = next(iter(dep.mic.channels.values())).flows[0]
    expected = [
        (
            plan.walk[pos],
            _addr_tuple(plan.fwd_addrs[i]),
            _addr_tuple(plan.fwd_addrs[i + 1]),
        )
        for i, pos in enumerate(plan.mn_positions)
    ]
    assert len(expected) == 3  # n_mns=3: three rewriting hops

    forward = [
        j for j in dep.journey.journeys_by_content_tag().values()
        if j.origin() == "h1" and j.delivered_to() == ["h16"]
    ]
    assert forward, "no forward-delivered journeys recorded"
    for j in forward:
        assert j.rewrite_chain() == expected
        for e in j.rewrites():
            assert e.detail["cookie"] == plan.cookie

    # The reverse direction inverts the mirrored address ladder.
    rev_positions = sorted(len(plan.walk) - 1 - p for p in plan.mn_positions)
    rwalk = list(reversed(plan.walk))
    expected_rev = [
        (rwalk[pos], _addr_tuple(plan.rev_addrs[i]), _addr_tuple(plan.rev_addrs[i + 1]))
        for i, pos in enumerate(rev_positions)
    ]
    backward = [
        j for j in dep.journey.journeys_by_content_tag().values()
        if j.delivered_to() == ["h1"] and j.origin() == "h16"
    ]
    assert backward
    for j in backward:
        assert j.rewrite_chain() == expected_rev


def test_intent_armed_healthy_channel_never_diverges():
    dep = _mic_echo()
    assert dep.journey._intent_armed
    for j in dep.journey.journeys_by_content_tag().values():
        assert j.by_kind("switch.divergence") == []


def test_journey_paths_follow_the_plan_walk():
    dep = _mic_echo()
    plan = next(iter(dep.mic.channels.values())).flows[0]
    forward = [
        j for j in dep.journey.journeys_by_content_tag().values()
        if j.origin() == "h1" and j.delivered_to() == ["h16"]
    ]
    assert forward
    for j in forward:
        assert j.path() == plan.walk
        assert j.origin() == "h1"
        assert j.total_latency_s() > 0


# ---------------------------------------------------------------------------
# multicast decoys: the journey is a tree with exact labels
# ---------------------------------------------------------------------------


def test_multicast_decoy_copies_are_labeled_exactly():
    dep = _mic_echo(decoys=2)
    forward = [
        j for j in dep.journey.journeys_by_content_tag().values()
        if "h16" in j.delivered_to()
    ]
    assert forward
    branched = [j for j in forward if len(j.uids()) > 1]
    assert branched, "decoys produced no multicast copies"
    for j in branched:
        delivered = j.delivered_uids()
        assert delivered < j.uids()  # strict: decoy instances exist
        # every host.rx instance is on the delivered lineage...
        for e in j.by_kind("host.rx"):
            assert e.uid in delivered
        # ...and no decoy instance ever reaches a host NIC as "delivered"
        decoy_uids = j.uids() - delivered
        assert decoy_uids
        for e in j.by_kind("host.rx"):
            assert e.uid not in decoy_uids
        # the parent links stitch every copy back to one recorded instance
        parents = j.parent_map()
        for uid in decoy_uids:
            assert uid in parents or any(
                e.uid == uid and e.kind != "switch.egress" for e in j.events
            )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_rate_zero_records_nothing():
    dep = _mic_echo(journey_kwargs={"sample_rate": 0.0})
    assert dep.journey.journeys_by_content_tag() == {}
    assert dep.journey.events_recorded == 0


def test_predicate_selects_flows():
    """A per-flow predicate sees the first packet of each wire content and
    its decision sticks for every copy/rewrite of that content."""
    seen = []

    def big_only(pkt):
        seen.append(pkt.content_tag)
        return pkt.payload_size >= 100

    dep = _mic_echo(journey_kwargs={"predicate": big_only})
    journeys = dep.journey.journeys_by_content_tag()
    assert journeys  # the MESSAGE-carrying segments matched
    # decisions were memoized: one predicate call per content tag
    assert len(seen) == len(set(seen))
    # only big packets were retained — control/handshake journeys filtered
    dep_full = _mic_echo()
    assert len(journeys) < len(dep_full.journey.journeys_by_content_tag())
    for j in journeys.values():
        first = j.events[0]
        assert first.detail.get("size", 0) >= 100


def test_hash_sampling_is_deterministic_and_rng_free():
    net = Network(linear(2, hosts_per_switch=1), seed=9)
    rec = JourneyRecorder.attach(net, sample_rate=0.5)
    h1, h2 = net.host("h1"), net.host("h2")
    rng_state_before = repr(net.sim.rng().getstate())
    pkts = [h1.make_packet(h2.ip, dport=80) for _ in range(400)]
    decisions = [rec.wants(p) for p in pkts]
    # decision memoized & repeatable
    assert [rec.wants(p) for p in pkts] == decisions
    # roughly the requested rate (crc32 is uniform enough for 400 tags)
    frac = sum(decisions) / len(decisions)
    assert 0.35 < frac < 0.65
    # and the sim's RNG streams were never touched
    assert repr(net.sim.rng().getstate()) == rng_state_before

    # the same tags give the same decisions in a fresh recorder
    rec2 = JourneyRecorder(net, sample_rate=0.5)
    assert [rec2.wants(p) for p in pkts] == decisions


def test_bad_sample_rate_rejected():
    net = Network(linear(2, hosts_per_switch=1), seed=9)
    with pytest.raises(ValueError):
        JourneyRecorder(net, sample_rate=1.5)


# ---------------------------------------------------------------------------
# scripted divergence + every contracted kind is emittable
# ---------------------------------------------------------------------------


def _scripted_chain(seed=4):
    """linear(3) with a rewrite at s2 and a decoy branch toward h2."""
    net = Network(linear(3, hosts_per_switch=1), seed=seed)
    h1, h2, h3 = net.host("h1"), net.host("h2"), net.host("h3")
    net.switch("s1").table.install(
        FlowEntry(Match(ip_dst=h3.ip), [Output(net.port("s1", "s2"))])
    )
    net.switch("s2").table.install_group(
        GroupEntry(
            group_id=1,
            buckets=[
                [SetField("ip_src", h2.ip), Output(net.port("s2", "s3"))],
                [Output(net.port("s2", "h2"))],  # decoy: dies at h2's NIC
            ],
        )
    )
    net.switch("s2").table.install(
        FlowEntry(Match(ip_dst=h3.ip), [Group(1)])
    )
    net.switch("s3").table.install(
        FlowEntry(
            Match(ip_dst=h3.ip),
            # unicast in-place rewrite: exercises switch.rewrite (the group
            # bucket's SetField only shows on per-copy egress headers)
            [SetField("sport", 4321), Output(net.port("s3", "h3"))],
        )
    )
    h3.bind("tcp", 80, lambda host, p: None)
    return net, h1, h2, h3


def test_scripted_group_journey_tree_and_foreign_drop():
    net, h1, h2, h3 = _scripted_chain()
    rec = JourneyRecorder.attach(net)
    h1.send_packet(h1.make_packet(h3.ip, sport=1234, dport=80, payload_size=64))
    net.run()
    (j,) = rec.journeys_by_content_tag().values()
    assert j.delivered_to() == ["h3"]
    # the decoy copy foreign-dropped at h2 with the original dst address
    (drop,) = j.by_kind("host.foreign_drop")
    assert drop.where == "h2"
    assert drop.uid not in j.delivered_uids()
    # two copies left s2, both children of the ingress instance
    (ingress,) = [e for e in j.by_kind("switch.ingress") if e.where == "s2"]
    egress = [e for e in j.by_kind("switch.egress") if e.where == "s2"]
    assert len(egress) == 2
    assert all(e.detail["parent_uid"] == ingress.uid for e in egress)
    # the bucket rewrite shows up on the real copy's egress header
    headers = {e.detail["header"] for e in egress}
    assert (str(h2.ip), str(h3.ip), 1234, 80, None) in headers  # rewritten
    assert (str(h1.ip), str(h3.ip), 1234, 80, None) in headers  # decoy


def test_scripted_divergence_fires_and_dumps():
    net, h1, h2, h3 = _scripted_chain()
    flight = FlightRecorder(capacity=8)
    rec = JourneyRecorder.attach(net, flight=flight)
    in_tuple = (str(h1.ip), str(h3.ip), 7777, 80, None)
    rec.expect("s2", in_tuple, (str(h1.ip), str(h3.ip), 7777, 9999, None))
    h1.send_packet(h1.make_packet(h3.ip, sport=7777, dport=80, payload_size=64))
    net.run()
    (j,) = rec.journeys_by_content_tag().values()
    (div,) = j.by_kind("switch.divergence")
    assert div.where == "s2"
    assert tuple(div.detail["old"]) == in_tuple
    assert tuple(div.detail["expected"]) == (str(h1.ip), str(h3.ip), 7777, 9999, None)
    # the emitted headers are reported so the operator sees what DID happen
    assert (str(h2.ip), str(h3.ip), 7777, 80, None) in [
        tuple(h) for h in div.detail["emitted"]
    ]
    # ... and the flight recorder dumped on it
    assert [d.trigger for d in flight.dumps] == ["divergence"]
    assert flight.dumps[0].cause.kind == "switch.divergence"


def test_every_contracted_kind_is_emitted_by_the_composite_scenario():
    """Across the scripted chain (+ttl, +miss, +down-link) and a decoy MIC
    echo, every kind in JOURNEY_EVENTS fires at least once — no dead rows
    in the doc table."""
    net, h1, h2, h3 = _scripted_chain()
    flight = FlightRecorder(capacity=8)
    rec = JourneyRecorder.attach(net, flight=flight)
    rec.expect("s2", (str(h1.ip), str(h3.ip), 1, 80, None),
               (str(h1.ip), str(h3.ip), 1, 2, None))
    # normal delivery (+ the injected divergence) ...
    h1.send_packet(h1.make_packet(h3.ip, sport=1, dport=80, payload_size=64))
    # ... a TTL death at s1 ...
    dying = h1.make_packet(h3.ip, sport=2, dport=80, payload_size=64)
    dying.ttl = 1
    h1.send_packet(dying)
    # ... a table miss (no rule for this destination anywhere) ...
    h1.send_packet(h1.make_packet(h2.ip, sport=3, dport=80, payload_size=64))
    net.run()
    # ... and a drop on a downed link.
    net.link_between("s2", "s3").set_up(False)
    h1.send_packet(h1.make_packet(h3.ip, sport=4, dport=80, payload_size=64))
    net.run()

    kinds = {
        e.kind
        for j in rec.journeys_by_content_tag().values()
        for e in j.events
    }
    # link.down is not packet-scoped: it reaches the flight rings (where
    # the link_down trigger sees it), never a packet's journey.
    kinds |= {
        e.kind for where in flight.locations() for e in flight.ring(where)
    }
    assert kinds == journey_event_kinds()

    # The dump/summarize pipeline renders this composite without loss.
    doc = journeys_to_json(rec, flight)
    table = format_hop_table(doc)
    assert "journeys" in doc and doc["journeys"]
    assert "flight dumps" in table
    assert "h1 -> s1 -> s2 -> s3 -> h3" in table


# ---------------------------------------------------------------------------
# compact rows: same events out, nothing left for the collector to walk
# ---------------------------------------------------------------------------


def test_events_and_queries_read_back_equal_the_eager_goldens():
    """Every ``JOURNEY_EVENTS`` kind, field for field and in key order, and
    every query answer equal what the eager ``JourneyEvent`` store gave."""
    golden = json.loads(GOLDEN.read_text())
    net, rec, flight = run_scenario()
    got = read_back(net, rec, flight)
    assert got["journeys"] == golden["journeys"]
    assert got["events_recorded"] == golden["events_recorded"]
    assert got["dump_json_sha256"] == golden["dump_json_sha256"]
    kinds = {e[1] for j in got["journeys"].values() for e in j["events"]}
    kinds |= {e[1] for ring in got["rings"].values() for e in ring}
    assert kinds == journey_event_kinds()
    # the views agree with each other, and single-journey lookup still works
    for tag, j in rec.journeys_by_content_tag().items():
        assert list(j) == j.events and len(j) == len(j.events)
        assert all(isinstance(e, JourneyEvent) for e in j.events)
        assert j.rewrites() == j.by_kind("switch.rewrite")
        assert rec.journey(tag).events == j.events
    assert len(rec) == len(golden["journeys"])
    with pytest.raises(KeyError):
        rec.journey(10_000)


def test_decoy_bearing_journey_answers_as_before():
    """``delivered_uids`` / ``path`` on a journey with a multicast decoy copy
    (the correlation attack's label source) are the parent's answers."""
    golden = json.loads(GOLDEN.read_text())["journeys"]["1"]
    _net, rec, _flight = run_scenario()
    j = rec.journey(1)
    (decoy_drop,) = j.by_kind("host.foreign_drop")
    assert decoy_drop.uid in j.uids() - j.delivered_uids()
    assert sorted(j.delivered_uids()) == golden["delivered_uids"]
    assert j.path() == golden["path"]
    assert sorted(j.parent_map().items()) == [tuple(p) for p in golden["parent_map"]]
    assert j.origin() == golden["origin"] == "h1"
    assert j.delivered_to() == golden["delivered_to"] == ["h3"]
    assert j.total_latency_s() == golden["total_latency_s"]


def test_every_hook_passes_exactly_its_contracted_fields():
    """Read back, every event is ``(time_s, kind, where, uid, content_tag,
    fields, *values)`` with ``fields`` the contract table's own tuple and one
    value per field — ``zip`` would silently truncate a hook that drifted.
    Checked at the sink for packed records (full sampling) and for the
    tuples an armed flight recorder rings unsampled (rate 0); a record is
    packed exactly when the log keeps it."""
    specs = {spec.kind: spec for spec in JOURNEY_EVENTS}
    record = JourneyRecorder._record
    for sample_rate in (1.0, 0.0):
        seen = set()

        def checked(self, kept, kind, ring, keep):
            row = self.decode(kept)
            spec = specs[kind]
            assert row[1] == kind
            assert row[5] is spec.fields, f"{kind} does not share the contract tuple"
            assert len(row) == 6 + len(spec.fields), row
            assert keep == isinstance(kept, bytes), kind
            seen.add(kind)
            record(self, kept, kind, ring, keep)

        JourneyRecorder._record = checked
        try:
            run_scenario(sample_rate=sample_rate)
        finally:
            JourneyRecorder._record = record
        assert seen == journey_event_kinds(), sample_rate
    assert row_column("link.tx", "backlog_bytes") == 6 + 3


def test_recorded_history_adds_no_collector_tracked_objects():
    """The property the speed-up rests on: at full sampling with an armed
    flight recorder, 1,000 forwarded packets leave behind fewer than 0.1
    GC-tracked objects per recorded event (the eager journey and trace
    stores left 22,990 behind this same run, for good)."""
    net = Network(linear(3, hosts_per_switch=1), seed=4)
    h1, h3 = net.host("h1"), net.host("h3")
    for a, b in (("s1", "s2"), ("s2", "s3"), ("s3", "h3")):
        net.switch(a).table.install(
            FlowEntry(Match(ip_dst=h3.ip), [Output(net.port(a, b))])
        )
    h3.bind("tcp", 80, lambda host, p: None)
    rec = JourneyRecorder.attach(net, flight=FlightRecorder())

    def pump():
        for _ in range(1000):
            # one 5-tuple: the switches' lookup caches must not grow either
            h1.send_packet(h1.make_packet(h3.ip, sport=9, dport=80, payload_size=64))
            yield net.sim.timeout(20e-6)

    # warm every lazily-built structure (rings, caches) before counting
    h1.send_packet(h1.make_packet(h3.ip, sport=9, dport=80, payload_size=64))
    net.run()
    gc.collect()
    before = len(gc.get_objects())
    events_before = rec.events_recorded
    net.sim.process(pump())
    net.run()
    # twice: a row holding a header tuple is untracked on the pass after the
    # one that untracked the header
    gc.collect()
    gc.collect()
    grown = len(gc.get_objects()) - before
    events = rec.events_recorded - events_before
    assert net.switch("s2").packets_forwarded == 1001
    assert events == 1000 * 12 and len(rec) == 1001
    assert grown < 0.1 * events, f"{grown} tracked objects for {events} events"


def test_all_or_nothing_sampling_keeps_no_per_tag_memo():
    """Rate 1.0 / 0.0 without a predicate cannot vary by tag: answered
    without growing a second per-packet map."""
    net = Network(linear(2, hosts_per_switch=1), seed=9)
    h1, h2 = net.host("h1"), net.host("h2")
    pkts = [h1.make_packet(h2.ip, dport=80) for _ in range(50)]
    for rate, answer in ((1.0, True), (0.0, False)):
        rec = JourneyRecorder(net, sample_rate=rate)
        assert [rec.wants(p) for p in pkts] == [answer] * len(pkts)
        assert rec._decisions == {}
    hashed = JourneyRecorder(net, sample_rate=0.5)
    assert len({hashed.wants(p) for p in pkts}) == 2
    assert len(hashed._decisions) == len(pkts)


def test_predicate_is_called_exactly_once_per_tag_at_any_rate():
    net = Network(linear(2, hosts_per_switch=1), seed=9)
    h1, h2 = net.host("h1"), net.host("h2")
    pkts = [h1.make_packet(h2.ip, dport=80) for _ in range(20)]
    for rate in (0.0, 0.5, 1.0):
        calls = []

        def odd(pkt):
            calls.append(pkt.content_tag)
            return pkt.content_tag % 2 == 1

        rec = JourneyRecorder(net, sample_rate=rate, predicate=odd)
        for _ in range(3):
            assert [rec.wants(p) for p in pkts] == [
                p.content_tag % 2 == 1 for p in pkts
            ]
        assert calls == [p.content_tag for p in pkts]


# ---------------------------------------------------------------------------
# shared header tuples
# ---------------------------------------------------------------------------


def _rewriting_burst(n, **journey_kwargs):
    """``n`` packets of one flow through the scripted chain (a group bucket
    rewrite at s2, an in-place rewrite at s3)."""
    net, h1, _h2, h3 = _scripted_chain()
    rec = JourneyRecorder.attach(net, **journey_kwargs)
    for _ in range(n):
        h1.send_packet(h1.make_packet(h3.ip, sport=1234, dport=80, payload_size=64))
    net.run()
    return rec


def test_sampled_rows_share_one_header_instance_per_value():
    """Every packet of a flow crosses a switch with the same header: the
    packed log holds an index into the intern table, which keeps one tuple
    per distinct header, so the rows read back share that one instance."""
    rec = _rewriting_burst(20)
    header_columns = {
        "switch.ingress": ("header",), "switch.egress": ("header",),
        "switch.rewrite": ("old", "new"),
    }
    held = [
        row[row_column(kind, name)]
        for row in rec.rows()
        for kind, names in header_columns.items() if row[1] == kind
        for name in names
    ]
    # per packet: ingress at 3 switches, 4 egress copies, one in-place rewrite
    assert len(held) == 20 * (3 + 4 + 2)
    distinct = set(held)
    table = list(rec._interned)
    headers = [value for value in table if isinstance(value, tuple)]
    assert len({id(h) for h in held}) == len(distinct) == len(headers)
    assert all(table[rec._interned[h]] is h for h in held)


def test_a_flight_only_recorder_shares_no_headers():
    """Unsampled rows go to the bounded rings only, as tuples: the intern
    table and the log stay empty, so a flight-only recorder's memory stays
    bounded."""
    flight = FlightRecorder(capacity=4)
    rec = _rewriting_burst(20, sample_rate=0.0, flight=flight)
    assert rec.events_recorded > 0 and rec.rows() == []
    assert any(flight.rings.values())
    assert all(
        isinstance(kept, tuple) for ring in flight.rings.values() for kept in ring
    )
    assert rec._interned == {} and not rec._log


def test_one_field_of_a_record_reads_as_its_decoded_row_holds_it():
    """``field`` reads one contracted value of a ringed record — packed or a
    tuple, interned or not — and it is the decoded row's value."""
    for sample_rate in (1.0, 0.0):
        _net, rec, flight = run_scenario(sample_rate=sample_rate)
        kinds = set()
        for ring in flight.rings.values():
            for kept in ring:
                row = rec.decode(kept)
                for name in row[5]:
                    assert rec.field(kept, name) == row[row_column(row[1], name)]
                kinds.add((row[1], isinstance(kept, bytes)))
        assert ("switch.rewrite", sample_rate == 1.0) in kinds


# ---------------------------------------------------------------------------
# one recorder per network
# ---------------------------------------------------------------------------


def test_a_second_recorder_is_refused_while_one_is_attached():
    """A second attach used to take every hook from the first, which kept
    its rows but silently stopped recording."""
    net, h1, _h2, h3 = _scripted_chain()
    first = JourneyRecorder.attach(net)
    with pytest.raises(ValueError, match="already attached"):
        JourneyRecorder.attach(net)
    assert net.journey is first and net.switch("s2").journey is first
    h1.send_packet(h1.make_packet(h3.ip, sport=1, dport=80, payload_size=64))
    net.run()
    assert len(first) == 1
    first.detach()
    assert not first.attached
    second = JourneyRecorder.attach(net)
    assert second.attached and net.switch("s2").journey is second
