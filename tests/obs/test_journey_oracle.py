"""The packed, one-sink journey recorder against the recorder it replaced.

Each example runs one seeded scenario twice, once with
:class:`repro.obs.JourneyRecorder` on today's switch pipeline and once with
the verbatim oracle (``journey_oracle.py``, which keeps every row as a
tuple) on the old one, and requires the same decoded rows,
``events_recorded``, flight rings and ``FlightDump.to_dict()`` dumps,
exported document, Perfetto bytes and dispatched-event log
(``tests/watchers.py``'s ``step_log``).

Four scenarios: a MIC echo (``decoys=1`` multicast emissions, intent
armed with one expectation forced wrong so that MN diverges, a TTL death, a
punt to an unrouted address and a link flap on the channel's walk, with or
without the self-profiler), the scripted every-kind chain of
``tests/recording_scenario.py``, a chain whose cookies, entry id and
packet size no record's fixed widths hold, and a chain carrying one probe
whose every narrowed value sits at its record's width or one past it.  The sampling matrix: rate 0 / 0.3 (hashed)
/ 1.0, a predicate that keeps some tags and one that keeps none; no flight
recorder, an armed one, or an armed one with a ``queue_threshold_bytes``.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st
from journey_oracle import OracleFlightRecorder, OracleRecorder, attach_oracle

from repro.core import deploy_mic
from repro.net import (
    DEFAULT_PARAMS,
    FlowEntry,
    Match,
    Network,
    Output,
    SetField,
    ip,
    linear,
)
from repro.obs import FlightRecorder, JourneyRecorder, Profiler, journeys_to_json
from repro.obs.perfetto import to_perfetto
from tests.recording_scenario import FLIGHT, run_scenario
from tests.watchers import step_log

MESSAGE = b"q" * 3000  # several segments back to back: a backlog
#: an out-tuple no rule ever emits
WRONG = ("0.0.0.0", "0.0.0.0", 0, 0, None)

SAMPLING = st.sampled_from([
    {"sample_rate": 0.0},
    {"sample_rate": 0.3},
    {"sample_rate": 1.0},
    {"predicate": lambda packet: packet.content_tag % 3 == 1},
    {"predicate": lambda packet: False},
])
FLIGHT_MODE = st.sampled_from(["off", "armed", "threshold"])


#: the oracle binds the old pipeline per switch; its dispatches are the
#: same calls under another name
_ORACLE_NAMES = {"old_classify": "Switch._classify"}


def _recorded(rec, flight, steps, prof=None) -> dict:
    """Everything a run recorded, as its readers return it."""
    document = journeys_to_json(rec)
    return {
        "rows": rec.rows(),
        "events_recorded": rec.events_recorded,
        "document": json.dumps(document),
        "perfetto": json.dumps(to_perfetto(document), indent=1),
        "steps": [
            (when, seq, _ORACLE_NAMES.get(name, name)) for when, seq, name in steps
        ],
        "rings": None if flight is None else {
            where: flight.ring(where) for where in flight.rings
        },
        "dumps": None if flight is None else [d.to_dict() for d in flight.dumps],
        "dumps_suppressed": None if flight is None else flight.dumps_suppressed,
        "obs.hook": None if prof is None else prof.report().counts().get("obs.hook"),
    }


def _assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], key


def _run(attach, flight_cls, seed, sampling, flight_mode, profiled, flap):
    """One echo h1 <-> h16 under ``attach``; returns everything recorded."""
    dep = deploy_mic(seed=seed)
    steps = step_log(dep.sim)
    flight = None
    if flight_mode != "off":
        flight = flight_cls(
            capacity=16, max_dumps=4,
            queue_threshold_bytes=600 if flight_mode == "threshold" else None,
        )
    rec = attach(dep.net, flight=flight, **sampling)
    prof = None
    if profiled:
        prof = Profiler()
        if isinstance(rec, OracleRecorder):
            rec.set_profiler(prof)  # the old recipe: the recorder brackets itself
        else:
            prof.hook(dep.net)
    server, alice = dep.server("h16", 80), dep.endpoint("h1")
    link_at, down_at, down_for = flap

    def client():
        stream = yield from alice.connect(
            "h16", service_port=80, n_mns=3, decoys=1
        )
        rec.arm_intent(dep.mic)
        switch, in_header = next(iter(rec._intent))
        rec.expect(switch, in_header, WRONG)
        walk = next(iter(dep.mic.channels.values())).flows[0].walk
        a, b = walk[link_at], walk[link_at + 1]
        now = dep.sim.now
        dep.sim.call_at(now + down_at, dep.net.set_link_state, a, b, False)
        dep.sim.call_at(now + down_at + down_for, dep.net.set_link_state, a, b, True)
        doomed = alice.host.make_packet(dep.net.host("h16").ip, payload_size=10)
        doomed.ttl = 1
        alice.host.send_packet(doomed)
        # no rule anywhere matches this destination: a miss, then a punt
        alice.host.send_packet(
            alice.host.make_packet(ip("10.99.99.99"), payload_size=10)
        )
        for _ in range(6):
            stream.send(MESSAGE)
            yield from stream.recv_exactly(len(MESSAGE))
            yield dep.sim.timeout(0.01)

    def srv():
        stream = yield server.accept()
        while True:
            data = yield from stream.recv_exactly(len(MESSAGE))
            stream.send(data)

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(2.0)
    return _recorded(rec, flight, steps, prof)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5),
    sampling=SAMPLING,
    flight_mode=FLIGHT_MODE,
    profiled=st.booleans(),
    flap=st.tuples(
        st.integers(1, 4),
        st.sampled_from([0.0, 0.005, 0.02]),
        st.sampled_from([0.001, 0.03]),
    ),
)
def test_one_sink_recorder_matches_the_oracle(seed, sampling, flight_mode, profiled, flap):
    args = (seed, sampling, flight_mode, profiled, flap)
    _assert_same(
        _run(JourneyRecorder.attach, FlightRecorder, *args),
        _run(attach_oracle, OracleFlightRecorder, *args),
    )


def _scripted(attach, flight_cls, sampling, flight_mode):
    flight_kwargs = {
        "off": None,
        "armed": dict(FLIGHT, queue_threshold_bytes=None),
        "threshold": FLIGHT,
    }[flight_mode]
    logs = []

    def watched(net, **kwargs):
        # before the script's first run: every dispatch is logged
        logs.append(step_log(net.sim))
        return attach(net, **kwargs)

    net, rec, flight = run_scenario(
        attach=watched, flight_cls=flight_cls, flight_kwargs=flight_kwargs,
        **sampling,
    )
    return _recorded(rec, flight, logs[0])


@settings(max_examples=30, deadline=None)
@given(sampling=SAMPLING, flight_mode=FLIGHT_MODE)
def test_packed_log_reads_back_the_oracle_rows_for_every_kind(sampling, flight_mode):
    """The scripted chain writes all twelve kinds — group copies, a
    divergence from armed intent, a TTL death, a miss, tail and in-flight
    drops, a link-down — and every reader agrees with the tuple store."""
    _assert_same(
        _scripted(JourneyRecorder.attach, FlightRecorder, sampling, flight_mode),
        _scripted(attach_oracle, OracleFlightRecorder, sampling, flight_mode),
    )


#: a cookie past a signed 64-bit field, one below an unsigned one, and one
#: past both
WIDE_COOKIES = (2**63, -1, 2**64)


def _wide(attach, flight_cls, sampling, flight_mode):
    """linear(3) with rules and a packet whose values no record's fixed
    widths hold: cookies past 2**63, below 0 and past 2**64, an entry id of
    2**63 and a packet of 2**32 payload bytes (links queue it whole)."""
    params = dataclasses.replace(DEFAULT_PARAMS, link_queue_bytes=2**40)
    net = Network(linear(3, hosts_per_switch=1), params=params, seed=2)
    steps = step_log(net.sim)
    h1, h3 = net.host("h1"), net.host("h3")
    for (switch, there), cookie in zip(
        [("s1", "s2"), ("s2", "s3"), ("s3", "h3")], WIDE_COOKIES
    ):
        net.switch(switch).table.install(FlowEntry(
            Match(ip_dst=h3.ip),
            [SetField("sport", 4000 + cookie % 7), Output(net.port(switch, there))],
            cookie=cookie, entry_id=2**63 if switch == "s2" else 0,
        ))
    h3.bind("udp", 9, lambda host, packet: None)
    flight = None
    if flight_mode != "off":
        flight = flight_cls(
            capacity=8,
            queue_threshold_bytes=1024 if flight_mode == "threshold" else None,
        )
    rec = attach(net, flight=flight, **sampling)
    for payload in (100, 2**32, 100):
        h1.send_packet(h1.make_packet(h3.ip, dport=9, payload_size=payload))
    net.run()
    return _recorded(rec, flight, steps)


@settings(max_examples=20, deadline=None)
@given(sampling=SAMPLING, flight_mode=FLIGHT_MODE)
def test_values_past_a_records_widths_read_back_as_recorded(sampling, flight_mode):
    """A row whose value its record cannot hold is kept as a tuple, so
    recording never fails mid-run and every reader agrees with the oracle."""
    _assert_same(
        _wide(JourneyRecorder.attach, FlightRecorder, sampling, flight_mode),
        _wide(attach_oracle, OracleFlightRecorder, sampling, flight_mode),
    )


def test_a_cookie_of_2_63_is_recorded_exactly():
    got = _wide(JourneyRecorder.attach, FlightRecorder, {"sample_rate": 1.0}, "armed")
    rewrites = [row for row in got["rows"] if row[1] == "switch.rewrite"]
    assert [row[8] for row in rewrites[:3]] == list(WIDE_COOKIES)
    assert rewrites[1][7] == 2**63  # the entry id
    sizes = {row[-1] for row in got["rows"] if row[1] in ("host.tx", "host.rx")}
    assert max(sizes) > 2**32 and len(got["rows"]) == 3 * 15


def test_the_matrix_reaches_every_shape():
    """Not vacuous: full sampling with a threshold-armed flight recorder
    sees decoy copies, a divergence, a TTL death, a miss, a link-down and
    dumps; the scripted chain keeps every kind but the unsampled link-down."""
    got = _run(JourneyRecorder.attach, FlightRecorder, 0, {"sample_rate": 1.0},
               "threshold", True, (2, 0.005, 0.03))
    kinds = {row[1] for row in got["rows"]}
    assert {"switch.divergence", "switch.ttl_expired", "switch.miss",
            "switch.rewrite", "link.tx", "host.rx"} <= kinds
    # a multicast copy: an egress whose uid is not its parent's
    assert any(row[1] == "switch.egress" and row[3] != row[7] for row in got["rows"])
    assert any(e.kind == "link.down" for ring in got["rings"].values() for e in ring)
    assert {d["trigger"] for d in got["dumps"]} >= {"divergence", "queue_depth"}
    assert got["dumps_suppressed"] > 0
    assert got["obs.hook"]["counters"]["journey_emit"] > 0
    scripted = _scripted(JourneyRecorder.attach, FlightRecorder,
                         {"sample_rate": 1.0}, "threshold")
    assert len({row[1] for row in scripted["rows"]}) == 11
    assert any(e.kind == "link.down"
               for ring in scripted["rings"].values() for e in ring)


#: the value fields a hot kind's record narrows, and their widths in bits
NARROWED = {
    "uid": 32, "content_tag": 32, "entry_id": 32, "parent_uid": 32,
    "backlog_bytes": 32, "in_port": 16, "out_port": 16, "size": 16, "cookie": 64,
}
HOT_KINDS = ("host.tx", "switch.ingress", "switch.rewrite", "switch.egress",
             "link.tx", "host.rx")


def _past_a_width(row) -> bool:
    """Whether a hot row holds a value its narrowed record cannot."""
    values = {"uid": row[3], "content_tag": row[4], **dict(zip(row[5], row[6:]))}
    return any(
        not 0 <= values[name] < 2**bits for name, bits in NARROWED.items()
        if name in values
    )


def _renumber(net, a, b, port):
    """Give ``a``'s port facing ``b`` the number ``port`` (the channel from
    ``b`` delivers on it)."""
    node = net.node(a)
    node.ports[port] = node.ports.pop(net.port(a, b))
    for channel in net.node(b).ports.values():
        if channel.dst is node:
            channel.dst_port = port


def _at_the_widths(attach, flight_cls, past, flight_mode):
    """linear(3) carrying one probe whose every narrowed value sits at its
    record's width, or one past it where ``past`` says so: uid, content tag,
    size, the rules' entry id and cookie, s3's ingress port, s2's egress
    port, and the backlog a 4 GB packet sent first leaves ahead of it."""
    params = dataclasses.replace(
        DEFAULT_PARAMS, link_queue_bytes=2**40,
        # both packets reach h1's NIC at time 0, where a backlog is exact
        link_bandwidth_bps=2.0**33, host_stack_delay_s=0.0,
    )
    net = Network(linear(3, hosts_per_switch=1), params=params, seed=3)
    steps = step_log(net.sim)
    h1, h3 = net.host("h1"), net.host("h3")
    out_port, in_port = 65535 + past["out_port"], 65535 + past["in_port"]
    _renumber(net, "s2", "s3", out_port)
    _renumber(net, "s3", "s2", in_port)
    entry_id, cookie = 2**32 - 1 + past["entry_id"], 2**64 - 1 + past["cookie"]
    for switch, port in (("s1", net.port("s1", "s2")), ("s2", out_port),
                         ("s3", net.port("s3", "h3"))):
        net.switch(switch).table.install(FlowEntry(
            Match(ip_dst=h3.ip),
            [SetField("sport", 4000 + int(switch[1])), Output(port)],
            cookie=cookie, entry_id=entry_id,
        ))
    h3.bind("udp", 9, lambda host, packet: None)
    flight = None if flight_mode == "off" else flight_cls(capacity=8)
    rec = attach(net, flight=flight, sample_rate=1.0)
    backlog = h1.make_packet(h3.ip, dport=9, payload_size=0)
    backlog.payload_size = 2**32 - 1 + past["backlog_bytes"] - backlog.size
    probe = h1.make_packet(h3.ip, dport=9, payload_size=0)
    probe.payload_size = 65535 + past["size"] - probe.size
    probe.uid = 2**32 - 1 + past["uid"]
    probe.content_tag = 2**32 - 1 + past["content_tag"]
    h1.send_packet(backlog)
    h1.send_packet(probe)
    net.run()
    assert h3.packets_received == 2
    return rec, _recorded(rec, flight, steps)


@settings(max_examples=25, deadline=None)
@given(
    past=st.fixed_dictionaries({
        name: st.integers(0, 1)
        for name in ("uid", "content_tag", "entry_id", "cookie", "backlog_bytes",
                     "in_port", "out_port", "size")
    }),
    flight_mode=st.sampled_from(["off", "armed"]),
)
def test_values_at_each_narrowed_width_and_one_past_it_read_back(past, flight_mode):
    """Each narrowed field at its width packs and reads back; one past it,
    the row is kept as a tuple — and only such rows are."""
    rec, got = _at_the_widths(JourneyRecorder.attach, FlightRecorder, past, flight_mode)
    _, want = _at_the_widths(attach_oracle, OracleFlightRecorder, past, flight_mode)
    _assert_same(got, want)
    probe = 2**32 - 1 + past["uid"]
    assert [row for row in got["rows"] if row[3] == probe and row[1] == "host.rx"]
    kept_as_tuples = [row for row in rec._rare if row[1] in HOT_KINDS]
    assert kept_as_tuples == [
        row for row in got["rows"] if row[1] in HOT_KINDS and _past_a_width(row)
    ]
    # the probe's link.tx at h1 meets the 4 GB packet's backlog exactly
    (first_tx,) = [row for row in got["rows"]
                   if row[1] == "link.tx" and row[3] == probe and row[2].startswith("h1")]
    assert first_tx[9] == 2**32 - 1 + past["backlog_bytes"]
