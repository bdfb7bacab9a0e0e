"""Failure detection: latency and heartbeat semantics."""

import pytest

from repro.net import Network, fat_tree
from repro.sdn import Controller
from repro.sdn.discovery import FailureDetector
from repro.sim import Simulator


class TestFailureDetectorUnit:
    def test_immediate_mode_is_synchronous(self):
        sim = Simulator(seed=0)
        det = FailureDetector(sim)
        assert det.immediate
        got = []
        det.deliver(got.append, "x")
        assert got == ["x"]  # no event scheduled, no sim.run needed
        assert det.events_delivered == 1

    def test_latency_delays_delivery(self):
        sim = Simulator(seed=0)
        det = FailureDetector(sim, latency_s=0.25)
        assert not det.immediate
        got = []
        det.deliver(got.append, "x")
        assert got == []
        sim.run(until=0.2)
        assert got == []
        sim.run(until=0.3)
        assert got == ["x"]

    def test_heartbeat_rounds_up_to_next_beat(self):
        sim = Simulator(seed=0)
        det = FailureDetector(sim, heartbeat_period_s=0.1)
        # at t=0 the next beat strictly after now is t=0.1
        assert det.detection_delay() == pytest.approx(0.1)
        got = []
        det.deliver(got.append, "beat")
        sim.run(until=0.05)
        assert got == []
        sim.run(until=0.11)
        assert got == ["beat"]

    @pytest.mark.parametrize("now", [0.3, 0.6, 0.7, 2.3])
    def test_an_event_on_a_beat_waits_for_the_next_one(self, now):
        # now / 0.1 rounds to just under a whole number for each of these
        # (0.3 / 0.1 = 2.999...): the beat at `now` is not strictly after it
        sim = Simulator(seed=0)
        det = FailureDetector(sim, heartbeat_period_s=0.1)
        sim.run(until=now)
        assert sim.now == now
        assert det.detection_delay() == pytest.approx(0.1)
        got = []
        det.deliver(got.append, "beat")
        sim.run(until=now + 0.09)
        assert got == []
        sim.run(until=now + 0.11)
        assert got == ["beat"]

    def test_an_event_between_beats_waits_for_the_rest_of_the_period(self):
        sim = Simulator(seed=0)
        det = FailureDetector(sim, heartbeat_period_s=0.1)
        sim.run(until=0.275)
        assert det.detection_delay() == pytest.approx(0.025)

    def test_heartbeat_plus_latency_compose(self):
        sim = Simulator(seed=0)
        det = FailureDetector(sim, latency_s=0.02, heartbeat_period_s=0.1)
        assert det.detection_delay() == pytest.approx(0.12)

    def test_validation(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            FailureDetector(sim, latency_s=-1.0)
        with pytest.raises(ValueError):
            FailureDetector(sim, heartbeat_period_s=0.0)


class TestControllerDetection:
    def test_default_controller_reacts_instantly(self):
        net = Network(fat_tree(4), seed=0)
        ctrl = Controller(net)
        net.set_link_state("p0e0", "p0a0", False)
        # no sim.run: the zero-latency detector updated the view in-line
        assert not ctrl.view.graph.has_edge("p0e0", "p0a0")

    def test_detection_latency_defers_view_update(self):
        net = Network(fat_tree(4), seed=0)
        ctrl = Controller(net, detection_latency_s=0.05)
        net.set_link_state("p0e0", "p0a0", False)
        assert ctrl.view.graph.has_edge("p0e0", "p0a0")  # not yet noticed
        net.run(until=0.04)
        assert ctrl.view.graph.has_edge("p0e0", "p0a0")
        net.run(until=0.06)
        assert not ctrl.view.graph.has_edge("p0e0", "p0a0")
        assert ctrl.detector.events_delivered == 1

    def test_switch_events_share_the_detector(self):
        net = Network(fat_tree(4), seed=0)
        ctrl = Controller(net, detection_latency_s=0.05)
        seen = []
        ctrl._on_switch_detected = (  # observe post-detection dispatch
            lambda name, up, _orig=ctrl._on_switch_detected: (
                seen.append((name, up)), _orig(name, up))[-1]
        )
        net.set_switch_state("p0e0", False)
        assert seen == []
        net.run(until=0.06)
        assert seen == [("p0e0", False)]
