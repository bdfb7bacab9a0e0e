"""No observer effect: observed and unobserved runs are byte-identical.

The observability layer must never perturb a run — its hooks schedule no
events and touch no RNG.  These tests run the same seeded MIC echo twice
(with and without an attached Observer, and with the periodic timeline
sampling on top) and require the same witness from both: the
dispatched-event log (``tests/watchers.py``'s ``step_log``: when, heap
sequence number and callable of every call the kernel dispatched), a
mirror-tap log of every packet at every switch and every channel's
counters.  One extra scheduled call, even a zero-delay no-op, moves every
later sequence number.  The witness reads no journey, so it holds the
journey recorder to the same rule.
"""

import dataclasses
import json

import pytest

from repro.core import deploy_mic
from repro.net import FlowEntry, Match, Network, Output, SetField, linear
from repro.obs import FlightRecorder, JourneyRecorder
from repro.obs.journey import header_tuple
from repro.obs.seam import wrap
from tests.recording_scenario import GOLDEN, read_back, run_scenario
from tests.watchers import step_log, watchers

MESSAGE = b"m" * 300


def _echo_run(
    observe: bool,
    timeline_period: float = 0.0,
    seed: int = 7,
    journey_kwargs: dict = None,
):
    """One seeded MIC echo h1 <-> h16, watched from before any traffic;
    returns ((dispatch log, tap log, channel stats), final sim time,
    deployment)."""
    dep = deploy_mic(
        seed=seed,
        observe=observe,
        journey=journey_kwargs is not None,
        journey_kwargs=journey_kwargs,
    )
    steps = step_log(dep.sim)
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
    assert taps, "no switch saw a packet"
    return (steps, taps, _channel_stats(dep.net)), dep.sim.now, dep


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


def _without_ticks(witness):
    """The witness less the sampler's wakeups, which take heap sequence
    numbers of their own: every other dispatch as ``(when, callable)``."""
    steps, *rest = witness
    kept = [(when, name) for when, _, name in steps if name != "Periodic._tick"]
    return len(steps) - len(kept), (kept, *rest)


def test_timeline_sampling_is_byte_identical():
    """Periodic sampling schedules wakeups, but reads only: every other
    dispatch, in the same order at the same instants."""
    plain, t_plain, _ = _echo_run(observe=False)
    seen, t_seen, dep = _echo_run(observe=True, timeline_period=0.05)
    assert t_plain == t_seen
    no_ticks, plain = _without_ticks(plain)
    ticks, seen = _without_ticks(seen)
    assert no_ticks == 0 and 38 <= ticks <= 40
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
    assert all(not watchers(sw, "receive") for sw in dep.net.switches())


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
    assert all(not watchers(h, "receive") for h in dep.net.hosts())
    assert all(not watchers(sw, "receive") for sw in dep.net.switches())
    assert all(
        not watchers(link.forward, "send") and not watchers(link.reverse, "send")
        for link in dep.net.links
    )


def _logged_scenario():
    """The recording scenario with a dispatched-event log on its kernel
    from the journey's attach on; returns ``(read-back, log)``."""
    logs = []

    def attach_logged(net, **kwargs):
        logs.append(step_log(net.sim))
        return JourneyRecorder.attach(net, **kwargs)

    got = read_back(*run_scenario(attach=attach_logged))
    (log,) = logs
    return got, log


def test_the_recording_golden_is_identical_with_and_without_the_log():
    """The scripted every-shape run reads back as its golden whether or not
    the dispatched-event log watches it, and two watched runs dispatch the
    same calls: the fingerprint perturbs nothing it compares."""
    golden = json.loads(GOLDEN.read_text())
    assert read_back(*run_scenario()) == golden
    got, log = _logged_scenario()
    assert got == golden
    assert log, "the watched run dispatched nothing"
    assert _logged_scenario() == (golden, log)


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


def _send(net, h1, dst, ttl=None):
    packet = h1.make_packet(dst, proto="udp", sport=7, dport=9, payload_size=32)
    if ttl is not None:
        packet.ttl = ttl
    h1.send_packet(packet)


@pytest.mark.parametrize("fate", ["forwarded", "ttl_expired", "miss"])
def test_detaching_mid_pipeline_finishes_the_hop_unrecorded(fate):
    """The recorder leaves between s1's ingress and its classification:
    the ``_classify`` wrapper the pipeline holds must only pass through,
    and the packet's fate is untouched."""
    net, h1, h2 = _chain()
    rec = JourneyRecorder.attach(net, flight=FlightRecorder())

    def ingress_then_detach(link, packet, in_port):
        _, _, inner = link
        inner(packet, in_port)  # the recorder's wrapper: the ingress row
        rec.detach()

    s1 = net.switch("s1")
    wrap(ingress_then_detach, "receive", ingress_then_detach, [s1])
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
