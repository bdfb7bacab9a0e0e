"""Flight recorder: bounded rings, anomaly triggers, dump discipline."""

import json
import math
import sys

import pytest

from repro.net import FlowEntry, Match, Network, Output, linear
from repro.obs import (
    ANOMALY_TRIGGERS,
    DEFAULT_TRIGGERS,
    FlightRecorder,
    JourneyEvent,
    JourneyRecorder,
)
from tests.recording_scenario import GOLDEN, read_back, run_scenario


def _wired(seed=5, install=True):
    """linear(2): h1 -> s1 -> s2 -> h2, optionally with the route installed."""
    net = Network(linear(2, hosts_per_switch=1), seed=seed)
    h1, h2 = net.host("h1"), net.host("h2")
    if install:
        net.switch("s1").table.install(
            FlowEntry(Match(ip_dst=h2.ip), [Output(net.port("s1", "s2"))])
        )
        net.switch("s2").table.install(
            FlowEntry(Match(ip_dst=h2.ip), [Output(net.port("s2", "h2"))])
        )
    h2.bind("tcp", 80, lambda host, p: None)
    return net, h1, h2


def _attach(net, **kwargs):
    flight = FlightRecorder(**kwargs)
    JourneyRecorder.attach(net, flight=flight)
    return flight


def test_rings_stay_bounded_at_capacity():
    net, h1, h2 = _wired()
    flight = _attach(net, capacity=3)
    for i in range(20):
        h1.send_packet(h1.make_packet(h2.ip, sport=i + 1, dport=80,
                                      payload_size=64))
    net.run()
    assert flight.locations()  # hosts, switches and channels all retained
    assert {"h1", "s1", "s2", "h2"} <= set(flight.locations())
    for where in flight.locations():
        assert 1 <= len(flight.ring(where)) <= 3
    # the ring keeps the *latest* events: h1's last tx is the 20th packet
    assert flight.ring("h1")[-1].detail["size"] >= 64
    assert flight.dumps == []  # healthy run


def test_drop_trigger_dumps_with_context():
    net, h1, h2 = _wired()
    flight = _attach(net, capacity=8)
    # one healthy delivery first, so the rings have context to snapshot
    h1.send_packet(h1.make_packet(h2.ip, sport=1, dport=80, payload_size=64))
    net.run()
    net.link_between("s1", "s2").set_up(False)
    h1.send_packet(h1.make_packet(h2.ip, sport=2, dport=80, payload_size=64))
    net.run()
    # bringing the link down dumps once per directed channel (link_down
    # trigger), then the packet sent into the dead link dumps on the drop
    down_dumps = [d for d in flight.dumps if d.trigger == "link_down"]
    assert len(down_dumps) == 2
    assert all(d.cause.kind == "link.down" for d in down_dumps)
    (dump,) = [d for d in flight.dumps if d.trigger == "drop"]
    assert dump.cause.kind == "link.drop"
    assert dump.time_s <= net.sim.now
    # the snapshot holds the events leading up to the anomaly at every
    # location, including the healthy delivery before it
    assert any(e.kind == "host.rx" for e in dump.events["h2"])
    doc = dump.to_dict()
    json.dumps(doc)  # JSON-serializable as-is
    assert doc["trigger"] == "drop"
    assert doc["cause"]["kind"] == "link.drop"


def test_ttl_trigger():
    net, h1, h2 = _wired()
    flight = _attach(net)
    p = h1.make_packet(h2.ip, sport=1, dport=80, payload_size=64)
    p.ttl = 1
    h1.send_packet(p)
    net.run()
    assert [d.trigger for d in flight.dumps] == ["ttl_expired"]
    assert flight.dumps[0].cause.kind == "switch.ttl_expired"


def test_queue_depth_trigger_needs_a_threshold():
    # threshold None (default): a burst builds backlog but never dumps
    net, h1, h2 = _wired()
    flight = _attach(net)
    for i in range(6):
        h1.send_packet(h1.make_packet(h2.ip, sport=i + 1, dport=80,
                                      payload_size=1000))
    net.run()
    assert flight.dumps == []

    # with a 1-byte threshold the same burst dumps on the queued packets
    net, h1, h2 = _wired()
    flight = _attach(net, queue_threshold_bytes=1)
    for i in range(6):
        h1.send_packet(h1.make_packet(h2.ip, sport=i + 1, dport=80,
                                      payload_size=1000))
    net.run()
    assert flight.dumps
    assert all(d.trigger == "queue_depth" for d in flight.dumps)
    assert all(d.cause.detail["backlog_bytes"] >= 1 for d in flight.dumps)


def test_miss_is_opt_in():
    # default triggers: a table miss is recorded but never dumps
    net, h1, h2 = _wired(install=False)
    flight = _attach(net)
    h1.send_packet(h1.make_packet(h2.ip, sport=1, dport=80, payload_size=64))
    net.run()
    assert any(e.kind == "switch.miss" for e in flight.ring("s1"))
    assert flight.dumps == []

    # opted in, the same scenario dumps
    net, h1, h2 = _wired(install=False)
    flight = _attach(net, triggers=DEFAULT_TRIGGERS | {"miss"})
    h1.send_packet(h1.make_packet(h2.ip, sport=1, dport=80, payload_size=64))
    net.run()
    assert [d.trigger for d in flight.dumps] == ["miss"]


def test_max_dumps_bounds_an_anomaly_storm():
    net, h1, h2 = _wired()
    flight = _attach(net, max_dumps=2)
    net.link_between("s1", "s2").set_up(False)
    for i in range(5):
        h1.send_packet(h1.make_packet(h2.ip, sport=i + 1, dport=80,
                                      payload_size=64))
    net.run()
    # the two link_down dumps (one per directed channel) exhaust the
    # budget; all five drops are suppressed
    assert len(flight.dumps) == 2
    assert [d.trigger for d in flight.dumps] == ["link_down", "link_down"]
    assert flight.dumps_suppressed == 5
    assert len(flight) == 2


def test_constructor_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        FlightRecorder(triggers=["drop", "nonsense"])
    # every contracted trigger name is accepted
    FlightRecorder(triggers=[t.name for t in ANOMALY_TRIGGERS])


@pytest.mark.parametrize("name, value", [
    # nan and 1.5 used to raise TypeError, and 10**20 OverflowError, at the
    # first ring append in mid-simulation
    ("capacity", math.nan), ("capacity", 1.5), ("capacity", 10**20),
    ("capacity", True),
    # nan used to remove the dump cap silently
    ("max_dumps", math.nan), ("max_dumps", -1), ("max_dumps", 2.0),
    # nan used to fire queue_depth on every link.tx
    ("queue_threshold_bytes", math.nan), ("queue_threshold_bytes", math.inf),
    ("queue_threshold_bytes", -1),
])
def test_a_bad_number_is_refused_at_construction(name, value):
    with pytest.raises(ValueError, match=name):
        FlightRecorder(**{name: value})


def test_the_numbers_at_their_bounds_are_accepted():
    flight = FlightRecorder(capacity=sys.maxsize, max_dumps=0,
                            queue_threshold_bytes=0)
    assert flight.rings["s1"].maxlen == sys.maxsize
    assert FlightRecorder(capacity=1, queue_threshold_bytes=0.5).capacity == 1


def test_a_flight_recorder_moves_to_a_new_journey_recorder_readable():
    """A ring holds offsets into its journey recorder's log, which only that
    recorder can decode: handing the flight recorder to a fresh recorder
    decodes them first, and is refused while the old one still records."""
    net, h1, h2 = _wired()
    flight = FlightRecorder(capacity=4)
    first = JourneyRecorder.attach(net, flight=flight)
    h1.send_packet(h1.make_packet(h2.ip, sport=1, dport=80, payload_size=64))
    net.run()
    before = {where: flight.ring(where) for where in flight.locations()}
    other, *_ = _wired()
    with pytest.raises(ValueError, match="still attached"):
        JourneyRecorder.attach(other, flight=flight)
    first.detach()
    second = JourneyRecorder.attach(net, flight=flight)
    assert flight.recorder is second
    assert {where: flight.ring(where) for where in flight.locations()} == before
    h1.send_packet(h1.make_packet(h2.ip, sport=2, dport=80, payload_size=64))
    net.run()
    assert flight.ring("h2")[-1].time_s > before["h2"][-1].time_s


def test_a_ring_of_the_old_recorders_offsets_decodes_into_its_rows():
    """A sampled event's ring entry is its record's offset in its journey
    recorder's log, which no other recorder can read.  Handing the flight
    recorder on decodes every offset through the old recorder into its row,
    and a dump taken before still reads back through the one that made it."""
    net, h1, h2 = _wired(install=False)
    flight = FlightRecorder(capacity=4, triggers=["miss"])
    first = JourneyRecorder.attach(net, flight=flight)
    h1.send_packet(h1.make_packet(h2.ip, sport=1, dport=80, payload_size=64))
    net.run()
    ringed = {where: list(ring) for where, ring in flight.rings.items()}
    assert ringed["h1"] and all(kept.__class__ is int for kept in ringed["h1"])
    rows = {where: [first.decode(kept) for kept in ring] for where, ring in ringed.items()}
    assert [row[1] for row in rows["s1"]] == ["switch.ingress", "switch.miss"]
    (dump,) = flight.dumps
    dumped = dump.to_dict()
    first.detach()
    JourneyRecorder.attach(net, flight=flight)
    assert {where: list(ring) for where, ring in flight.rings.items()} == rows
    assert dump.to_dict() == dumped


def test_default_triggers_match_the_contract():
    assert DEFAULT_TRIGGERS == {
        t.name for t in ANOMALY_TRIGGERS if t.default
    }
    assert "miss" not in DEFAULT_TRIGGERS


# ---------------------------------------------------------------------------
# compact rows: rings and dumps hold journey rows, readers see events
# ---------------------------------------------------------------------------


def test_rings_and_dumps_read_back_equal_the_eager_goldens():
    """Ring contents at capacity 8, the ``max_dumps=8`` cut-off, the
    1 KB ``queue_depth`` threshold and every ``FlightDump.to_dict()`` byte
    equal what the recorder gave when it stored ``JourneyEvent`` objects."""
    golden = json.loads(GOLDEN.read_text())
    net, rec, flight = run_scenario()
    got = read_back(net, rec, flight)
    assert got["rings"] == golden["rings"]
    assert got["dumps"] == golden["dumps"]
    assert got["dumps_suppressed"] == golden["dumps_suppressed"] == 1
    assert got["dump_json_sha256"] == golden["dump_json_sha256"]
    assert [d["trigger"] for d in got["dumps"]] == [
        "ttl_expired", "divergence", "queue_depth", "queue_depth",
        "drop", "drop", "link_down", "link_down",
    ]
    assert all(len(ring) <= 8 for ring in got["rings"].values())
    assert max(len(ring) for ring in got["rings"].values()) == 8


def test_dump_views_are_journey_events_built_from_the_snapshot():
    net, h1, h2 = _wired()
    flight = _attach(net, capacity=4)
    h1.send_packet(h1.make_packet(h2.ip, sport=1, dport=80, payload_size=64))
    net.run()
    net.link_between("s1", "s2").set_up(False)
    (dump, _reverse) = flight.dumps
    assert isinstance(dump.cause, JourneyEvent)
    assert dump.cause == JourneyEvent(
        dump.time_s, "link.down", "s1[2]->s2[1]", 0, 0, {"up": False}
    )
    assert dump.events["h2"] == flight.ring("h2")
    assert all(
        isinstance(e, JourneyEvent) for ring in dump.events.values() for e in ring
    )
    # a snapshot: later traffic moves the rings, not the dump
    before = dump.to_dict()
    net.link_between("s1", "s2").set_up(True)
    h1.send_packet(h1.make_packet(h2.ip, sport=2, dport=80, payload_size=64))
    net.run()
    assert dump.to_dict() == before
    assert dump.events["h2"] != flight.ring("h2")
