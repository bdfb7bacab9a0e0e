"""No observer effect: observed and unobserved runs are byte-identical.

The observability layer must never perturb a run — its hooks schedule no
events, emit no trace records, and touch no RNG.  These tests run the same
seeded MIC echo twice (with and without an attached Observer, and with the
periodic timeline sampling on top) and require the same witness from both:
the trace log (control-plane actions and state), a mirror-tap log of every
packet at every switch and every channel's counters.  The witness reads no
journey, so it holds the journey recorder to the same rule.  The trace log
itself is a probe of the same kind: attaching it changes nothing the run
can see.
"""

import dataclasses
import json

import pytest

from repro.core import deploy_mic
from repro.net import FlowEntry, Match, Network, Output, SetField, linear
from repro.obs import FlightRecorder, JourneyRecorder
from repro.obs.journey import header_tuple
from tests.recording_scenario import GOLDEN, read_back, run_scenario

MESSAGE = b"m" * 300


def _echo_run(
    observe: bool,
    timeline_period: float = 0.0,
    seed: int = 7,
    journey_kwargs: dict = None,
    trace: bool = True,
):
    """One seeded MIC echo h1 <-> h16, the trace log attached before any
    traffic unless ``trace`` is off; returns ((trace reprs, tap log, channel
    stats), final sim time, deployment)."""
    dep = deploy_mic(
        seed=seed,
        observe=observe,
        journey=journey_kwargs is not None,
        journey_kwargs=journey_kwargs,
    )
    log = dep.net.attach_trace() if trace else None
    taps = _tap_every_switch(dep.net)
    if observe and timeline_period > 0:
        dep.obs.start_timeline(timeline_period)
    server = dep.server("h16", 80)
    alice = dep.endpoint("h1")

    def client():
        stream = yield from alice.connect("h16", service_port=80, n_mns=3)
        stream.send(MESSAGE)
        yield from stream.recv_exactly(len(MESSAGE))

    def srv():
        stream = yield server.accept()
        data = yield from stream.recv_exactly(len(MESSAGE))
        stream.send(data)

    dep.sim.process(client())
    dep.sim.process(srv())
    dep.run_for(2.0)
    if observe:
        dep.obs.stop_timeline()
    reprs = [] if log is None else [repr(r) for r in log]
    assert taps, "no switch saw a packet"
    return (reprs, taps, _channel_stats(dep.net)), dep.sim.now, dep


def _tap_every_switch(net):
    """``(time, switch, port, direction, uid, header, size)`` of every packet
    every switch receives or emits, appended as the run goes."""
    seen = []
    for sw in net.switches():
        def tap(packet, port, direction, name=sw.name):
            seen.append((
                net.sim.now, name, port, direction, packet.uid,
                header_tuple(packet), packet.size,
            ))
        sw.add_mirror_tap(tap)
    return seen


def _channel_stats(net):
    """Every channel's packets, bytes and drops, by channel name."""
    return [
        (ch.name, dataclasses.astuple(ch.stats))
        for link in net.links for ch in (link.forward, link.reverse)
    ]


def test_observed_run_is_byte_identical():
    plain, t_plain, _ = _echo_run(observe=False)
    seen, t_seen, dep = _echo_run(observe=True)
    assert t_plain == t_seen
    assert plain == seen
    # ... and the observed run actually observed something (not vacuous).
    assert len(dep.obs.spans.by_name("mic.connect")) == 1
    assert len(dep.obs.spans.by_name("mic.establish")) == 1
    snap = dep.obs.snapshot()
    assert snap.histogram("net.packet_latency_s", host="h16")["count"] > 0


def test_timeline_sampling_is_byte_identical():
    """Periodic sampling schedules wakeups, but reads-only: same trace."""
    plain, t_plain, _ = _echo_run(observe=False)
    seen, t_seen, dep = _echo_run(observe=True, timeline_period=0.05)
    assert t_plain == t_seen
    assert plain == seen
    # The timeline really ran: ~2.0s horizon / 0.05s period of ticks
    # (one tick may fall past the horizon through float accumulation).
    ch = next(iter(dep.obs.channels()))
    n = len(dep.obs.timeline.samples("link.queue_sample.bytes", ch.name))
    assert 38 <= n <= 40


def test_detach_restores_the_unhooked_state():
    _, _, dep = _echo_run(observe=True)
    dep.obs.detach()
    assert all("receive" not in vars(h) for h in dep.net.hosts())
    assert dep.net.observer is None and dep.mic.obs is None


def test_journey_sampling_zero_is_byte_identical():
    """A rate-0 recorder without predicate or flight is statically dead:
    attach() installs no hooks, so the disabled default costs nothing and
    the trace is byte-identical by construction — verified anyway."""
    plain, t_plain, _ = _echo_run(observe=False)
    seen, t_seen, dep = _echo_run(
        observe=True, journey_kwargs={"sample_rate": 0.0}
    )
    assert t_plain == t_seen
    assert plain == seen
    assert len(dep.journey.journeys_by_content_tag()) == 0
    assert dep.journey.never_records
    assert all(sw.journey is None for sw in dep.net.switches())


def test_journey_full_sampling_is_byte_identical():
    """Even full-fidelity tracing perturbs nothing the sim can see."""
    plain, t_plain, _ = _echo_run(observe=False)
    seen, t_seen, dep = _echo_run(
        observe=True, journey_kwargs={"sample_rate": 1.0}
    )
    assert t_plain == t_seen
    assert plain == seen
    # ... and the recorder actually recorded full journeys (not vacuous).
    journeys = dep.journey.journeys_by_content_tag()
    assert journeys
    assert any("h16" in j.delivered_to() for j in journeys.values())


def test_flight_armed_untriggered_is_byte_identical():
    """An armed flight recorder processes every packet (sampling or not),
    keeps its rings bounded, fires no trigger on a healthy run — and the
    trace stays byte-identical."""

    plain, t_plain, _ = _echo_run(observe=False)
    flight = FlightRecorder(capacity=16)
    seen, t_seen, dep = _echo_run(
        observe=True, journey_kwargs={"sample_rate": 0.0, "flight": flight}
    )
    assert t_plain == t_seen
    assert plain == seen
    assert flight.dumps == []  # healthy run: armed but silent
    assert flight.locations()  # ... yet the rings did see traffic
    assert all(len(flight.ring(w)) <= 16 for w in flight.locations())
    # sampling-zero still holds: the rings see packets, journeys don't
    assert len(dep.journey.journeys_by_content_tag()) == 0


def test_journey_detach_restores_the_unhooked_state():
    _, _, dep = _echo_run(observe=True, journey_kwargs={})
    dep.obs.detach()  # the observer holds no recorder: the journey stays
    assert dep.journey.attached and dep.net.journey is dep.journey
    dep.journey.detach()
    assert dep.net.journey is None
    assert all(h.journey is None for h in dep.net.hosts())
    assert all(sw.journey is None for sw in dep.net.switches())
    assert all(
        link.forward.journey is None and link.reverse.journey is None
        for link in dep.net.links
    )


# ---------------------------------------------------------------------------
# attaching or detaching while a packet sits in a switch pipeline
# ---------------------------------------------------------------------------


def _chain():
    """linear(2), h1 -> s1 -> s2 -> h2 routed, with a rewrite at s1."""
    net = Network(linear(2, hosts_per_switch=1), seed=3)
    h1, h2 = net.host("h1"), net.host("h2")
    net.switch("s1").table.install(FlowEntry(
        Match(ip_dst=h2.ip), [SetField("sport", 4321), Output(net.port("s1", "s2"))]
    ))
    net.switch("s2").table.install(
        FlowEntry(Match(ip_dst=h2.ip), [Output(net.port("s2", "h2"))])
    )
    h2.bind("udp", 9, lambda host, packet: None)
    return net, h1, h2


def _send(net, h1, dst, ttl=None, dport=9):
    packet = h1.make_packet(dst, proto="udp", sport=7, dport=dport, payload_size=32)
    if ttl is not None:
        packet.ttl = ttl
    h1.send_packet(packet)
    return packet


@pytest.mark.parametrize("fate", ["forwarded", "ttl_expired", "miss"])
def test_detaching_mid_pipeline_finishes_the_hop_unrecorded(fate):
    """The recorder leaves between s1's ingress and its classification:
    the switch carries the ingress header into a pipeline with no journey,
    must not call into it, and the packet's fate is untouched."""
    net, h1, h2 = _chain()
    rec = JourneyRecorder.attach(net, flight=FlightRecorder())
    ingress = rec.on_switch_ingress

    def ingress_then_detach(switch, packet, in_port):
        header = ingress(switch, packet, in_port)
        rec.detach()
        return header

    rec.on_switch_ingress = ingress_then_detach
    dst = net.host("h1").ip if fate == "miss" else h2.ip  # s1 has no rule back
    _send(net, h1, dst, ttl=1 if fate == "ttl_expired" else None)
    net.run()
    assert [row[1] for row in rec.rows()] == ["host.tx", "link.tx", "switch.ingress"]
    assert h2.packets_received == (fate == "forwarded")
    s1 = net.switch("s1")
    assert (s1.packets_forwarded, s1.packets_punted) == {
        "forwarded": (1, 0), "ttl_expired": (0, 0), "miss": (0, 1)}[fate]


def test_attaching_mid_pipeline_starts_at_the_next_ingress():
    """A recorder attached while the packet sits in s1's pipeline records
    nothing at s1 for that hop (its ingress was never seen); the packet's
    switch events start at s2's ingress."""
    net, h1, h2 = _chain()
    attached = []

    def attach_next(packet, port, direction):
        if direction == "in" and not attached:
            # after receive() returns: the packet is already in the pipeline
            net.sim.call_later(0.0, lambda: attached.append(JourneyRecorder.attach(net)))

    net.switch("s1").add_mirror_tap(attach_next)
    _send(net, h1, h2.ip)
    net.run()
    (rec,) = attached
    assert h2.packets_received == 1
    assert [(row[1], row[2]) for row in rec.rows()] == [
        ("link.tx", "s1[2]->s2[1]"),
        ("switch.ingress", "s2"),
        ("switch.egress", "s2"),
        ("link.tx", "s2[2]->h2[0]"),
        ("host.rx", "h2"),
    ]


# ---------------------------------------------------------------------------
# the trace log: attached on demand, and attaching it perturbs nothing
# ---------------------------------------------------------------------------


def _journey_echo(trace: bool):
    return _echo_run(
        observe=False, journey_kwargs={"sample_rate": 1.0}, trace=trace
    )


def test_attaching_the_trace_log_perturbs_nothing():
    (bare, *bare_packets), t_bare, dep_bare = _journey_echo(trace=False)
    (traced, *traced_packets), t_traced, dep_traced = _journey_echo(trace=True)
    assert bare == [] and traced  # not vacuous: one run recorded, one did not
    assert bare_packets == traced_packets
    assert dep_bare.net.trace is None
    assert t_bare == t_traced
    assert [(h.bytes_sent, h.bytes_received) for h in dep_bare.net.hosts()] == [
        (h.bytes_sent, h.bytes_received) for h in dep_traced.net.hosts()
    ]
    assert dep_bare.journey.rows() == dep_traced.journey.rows()


def test_the_recording_golden_is_identical_with_and_without_the_log():
    """The scripted every-shape run: its trace section is the golden's once
    the log is attached, and every other recorder reads the same without it."""
    golden = json.loads(GOLDEN.read_text())
    assert read_back(*run_scenario()) == golden
    assert read_back(*run_scenario(trace=False)) == {**golden, "trace": []}


def _every_trace(net):
    return [net.trace] + [n.trace for n in net.nodes.values()]


#: h2 binds udp/9 only: a packet to this port is refused, which the trace
#: log records (``host.refused``, a death no journey kind records)
_UNBOUND = 10

#: what the log keeps of a refused h1 -> h2 packet sent before the attach
#: and of one in flight at the attach: the second one's refusal
_REFUSED = [("host.refused", "h2")]


@pytest.mark.parametrize("direction, rows", [
    ("in", _REFUSED),    # the packet sits in s1's pipeline
    ("out", _REFUSED),   # the packet is on the s1 -> s2 link
])
def test_attaching_mid_flight_records_from_that_instant_on(direction, rows):
    net, h1, h2 = _chain()
    assert all(t is None for t in _every_trace(net))
    _send(net, h1, h2.ip, dport=_UNBOUND)  # refused before anything is attached
    net.run()
    attached = []

    def attach_next(packet, port, tap_direction):
        if tap_direction == direction and not attached:
            # runs after s1's receive / classification has returned
            net.sim.call_later(0.0, lambda: attached.append(net.attach_trace()))

    net.switch("s1").add_mirror_tap(attach_next)
    packet = _send(net, h1, h2.ip, dport=_UNBOUND)
    net.run()
    (log,) = attached
    assert h2.packets_received == 2
    assert [(r.category, r.node) for r in log] == rows
    assert [r["uid"] for r in log] == [packet.uid]
    assert all(t is log for t in _every_trace(net))


def test_a_second_attach_is_refused_until_the_first_detaches():
    """A second ``attach_trace()`` used to rewire every node to a fresh log
    and leave the first one readable but silent; it is refused instead."""
    net, h1, h2 = _chain()
    first = net.attach_trace()
    with pytest.raises(ValueError, match="already attached"):
        net.attach_trace()
    assert all(t is first for t in _every_trace(net))
    _send(net, h1, h2.ip, dport=_UNBOUND)
    net.run()
    assert [(r.category, r.node) for r in first] == _REFUSED
    net.detach_trace()
    second = net.attach_trace()
    _send(net, h1, h2.ip, dport=_UNBOUND)
    net.run()
    assert len(first) == len(second) == 1
    assert all(t is second for t in _every_trace(net))


def test_detach_stops_recording_at_once():
    net, h1, h2 = _chain()
    log = net.attach_trace()
    first = _send(net, h1, h2.ip, dport=_UNBOUND)
    net.run()

    def detach_after_s1(packet, port, direction):
        if direction == "out":
            net.sim.call_later(0.0, net.detach_trace)

    net.switch("s1").add_mirror_tap(detach_after_s1)
    _send(net, h1, h2.ip, dport=_UNBOUND)
    net.run()
    assert h2.packets_received == 2
    assert [(r.category, r.node, r["uid"]) for r in log] == [
        ("host.refused", "h2", first.uid),
    ]
    assert all(t is None for t in _every_trace(net))
