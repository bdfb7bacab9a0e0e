"""No observer effect: observed and unobserved runs are byte-identical.

The observability layer must never perturb a run — its hooks schedule no
events, emit no trace records, and touch no RNG.  These tests run the same
seeded MIC echo twice (with and without an attached Observer, and with the
periodic timeline sampling on top) and require the full trace logs to
serialize identically.
"""

from repro.core import deploy_mic

MESSAGE = b"m" * 300


def _echo_run(
    observe: bool,
    timeline_period: float = 0.0,
    seed: int = 7,
    journey_kwargs: dict = None,
):
    """One seeded MIC echo h1 <-> h16; returns (trace reprs, final sim time)."""
    dep = deploy_mic(
        seed=seed,
        observe=observe,
        journey=journey_kwargs is not None,
        journey_kwargs=journey_kwargs,
    )
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
    return [repr(r) for r in dep.net.trace.records], dep.sim.now, dep


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
    assert all(h.obs is None for h in dep.net.hosts())
    assert dep.mic.obs is None


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
    from repro.obs import FlightRecorder

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
    dep.obs.detach()  # observer owns the journey recorder when both attach
    assert all(h.journey is None for h in dep.net.hosts())
    assert all(sw.journey is None for sw in dep.net.switches())
    assert all(
        link.forward.journey is None and link.reverse.journey is None
        for link in dep.net.links
    )
