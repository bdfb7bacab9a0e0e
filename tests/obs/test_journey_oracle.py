"""The one-sink journey recorder against the recorder it replaced.

Each example runs one seeded MIC echo twice, once with
:class:`repro.obs.JourneyRecorder` on today's switch pipeline and once with
the verbatim oracle (``journey_oracle.py``) on the old one, and requires
the same rows, ``events_recorded``, flight rings and dumps, exported
document and (attached) trace log.  The matrix: sampling rate 0 / 0.3 /
1.0 or an always-no predicate; no flight recorder, an armed one, or an
armed one with a ``queue_threshold_bytes``; with and without the
self-profiler.
Every run carries ``decoys=1`` multicast emissions, intent armed with one
expectation forced wrong (a divergence at that MN), a TTL death and a
link flap on the channel's walk.
"""

import json

from hypothesis import given, settings, strategies as st
from journey_oracle import OracleFlightRecorder, OracleRecorder, attach_oracle

from repro.core import deploy_mic
from repro.obs import FlightRecorder, JourneyRecorder, Profiler, journeys_to_json

MESSAGE = b"q" * 3000  # several segments back to back: a backlog
#: an out-tuple no rule ever emits
WRONG = ("0.0.0.0", "0.0.0.0", 0, 0, None)

SAMPLING = st.sampled_from([
    {"sample_rate": 0.0},
    {"sample_rate": 0.3},
    {"sample_rate": 1.0},
    {"predicate": lambda packet: False},
])
FLIGHT = st.sampled_from(["off", "armed", "threshold"])


def _run(attach, flight_cls, seed, sampling, flight_mode, profiled, flap):
    """One echo h1 <-> h16 under ``attach``; returns everything recorded."""
    dep = deploy_mic(seed=seed)
    trace = dep.net.attach_trace()
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
    return {
        "rows": rec._rows,
        "events_recorded": rec.events_recorded,
        "document": json.dumps(journeys_to_json(rec)),
        "trace": trace._rows,
        "rings": None if flight is None else {
            where: tuple(ring) for where, ring in flight.rings.items()
        },
        "dumps": None if flight is None else flight.dumps,
        "dumps_suppressed": None if flight is None else flight.dumps_suppressed,
        "obs.hook": None if prof is None else prof.report().counts().get("obs.hook"),
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5),
    sampling=SAMPLING,
    flight_mode=FLIGHT,
    profiled=st.booleans(),
    flap=st.tuples(
        st.integers(1, 4),
        st.sampled_from([0.0, 0.005, 0.02]),
        st.sampled_from([0.001, 0.03]),
    ),
)
def test_one_sink_recorder_matches_the_oracle(seed, sampling, flight_mode, profiled, flap):
    args = (seed, sampling, flight_mode, profiled, flap)
    got = _run(JourneyRecorder.attach, FlightRecorder, *args)
    want = _run(attach_oracle, OracleFlightRecorder, *args)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], key


def test_the_matrix_reaches_every_shape():
    """Not vacuous: full sampling with a threshold-armed flight recorder
    sees decoy copies, a divergence, a TTL death, a link-down and dumps."""
    got = _run(JourneyRecorder.attach, FlightRecorder, 0, {"sample_rate": 1.0},
               "threshold", True, (2, 0.005, 0.03))
    kinds = {row[1] for row in got["rows"]}
    assert {"switch.divergence", "switch.ttl_expired", "switch.rewrite",
            "link.tx", "host.rx"} <= kinds
    # a multicast copy: an egress whose uid is not its parent's
    assert any(row[1] == "switch.egress" and row[3] != row[7] for row in got["rows"])
    assert any(row[1] == "link.down" for ring in got["rings"].values() for row in ring)
    assert {d.trigger for d in got["dumps"]} >= {"divergence", "queue_depth"}
    assert got["dumps_suppressed"] > 0
    assert got["obs.hook"]["counters"]["journey_emit"] > 0
