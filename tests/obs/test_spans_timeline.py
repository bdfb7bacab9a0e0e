"""Unit tests: histograms (exact percentiles), span logs, the timeline."""

import pytest

from repro.net import FlowEntry, Match, Network, Output, linear
from repro.obs import NULL_SPAN, Histogram, Observer, SpanLog, begin, labels_key


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        h = Histogram()
        for v in range(100, 0, -1):  # unsorted on purpose
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0  # nearest rank is 1-based
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)

    def test_single_value(self):
        h = Histogram()
        h.observe(3.0)
        s = h.summary()
        assert s["p50"] == s["p95"] == s["p99"] == s["min"] == s["max"] == 3.0
        assert s["count"] == 1.0 and s["sum"] == 3.0

    def test_empty_is_all_zero(self):
        s = Histogram().summary()
        assert all(v == 0.0 for k, v in s.items() if k != "buckets")
        assert all(cum == 0 for _, cum in s["buckets"])

    def test_percentile_range_checked(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_observe_after_summary_stays_correct(self):
        h = Histogram()
        h.observe(5.0)
        assert h.percentile(50) == 5.0  # forces the sorted state
        h.observe(1.0)  # arrives out of order afterwards
        assert h.percentile(50) == 1.0
        assert h.max == 5.0


class TestSpanLog:
    def test_record_and_queries(self):
        log = SpanLog()
        log.record("op", 1.0, 3.0, kind="a")
        log.record("op", 4.0, 5.0, kind="b")
        log.record("other", 0.0, 1.0)
        assert len(log) == 3
        assert log.durations("op") == [2.0, 1.0]
        assert log.total("op") == 3.0
        assert log.last("op").label("kind") == "b"
        assert log.last("op", kind="a").duration_s == 2.0
        with pytest.raises(KeyError):
            log.last("op", kind="z")

    def test_explicit_duration_for_disjoint_windows(self):
        log = SpanLog()
        rec = log.record("setup", 0.0, 10.0, duration_s=2.5, protocol="mic-ssl")
        assert rec.end_s - rec.start_s == 10.0
        assert rec.duration_s == 2.5

    def test_begin_without_observer_is_null(self):
        span = begin(None, "anything", label=1)
        assert span is NULL_SPAN
        span.finish(extra=2)  # must be a silent no-op

    def test_begin_with_observer_records_on_finish(self):
        net = Network(linear(1, hosts_per_switch=1))
        obs = Observer.attach(net)
        span = begin(obs, "op", who="me")
        span.finish(result="ok")
        rec = obs.spans.last("op")
        assert rec.start_s == rec.end_s == 0.0
        assert rec.labels == labels_key({"who": "me", "result": "ok"})


class TestTimeline:
    def _busy_net(self):
        net = Network(linear(1, hosts_per_switch=2), seed=3)
        h1, h2 = net.host("h1"), net.host("h2")
        net.switch("s1").table.install(
            FlowEntry(Match(ip_dst=h2.ip), [Output(net.port("s1", "h2"))])
        )
        h2.bind("tcp", 80, lambda host, p: None)
        return net, h1, h2

    def test_period_must_be_positive(self):
        net, h1, h2 = self._busy_net()
        obs = Observer.attach(net)
        with pytest.raises(ValueError):
            obs.start_timeline(0.0)

    def test_samples_land_on_the_period_grid(self):
        net, h1, h2 = self._busy_net()
        obs = Observer.attach(net)
        obs.start_timeline(0.01)
        for _ in range(3):
            h1.send_packet(h1.make_packet(h2.ip, dport=80, payload_size=500))
        net.run(until=0.05)
        obs.stop_timeline()
        ch = net.host("h1").ports[0]  # h1 -> s1 transmit channel
        series = obs.timeline.samples("link.queue_sample.bytes", ch.name)
        assert [t for t, _ in series] == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05])
        util = obs.timeline.samples("link.utilization", ch.name)
        assert len(util) == len(series)
        # Three 500B-payload packets moved during the first period.
        assert util[0][1] > 0.0
        assert all(u >= 0.0 for _, u in util)

    def test_histograms_accumulate_alongside_series(self):
        net, h1, h2 = self._busy_net()
        obs = Observer.attach(net)
        obs.start_timeline(0.01)
        net.run(until=0.03)
        obs.stop_timeline()
        ch = net.host("h1").ports[0]
        snap = obs.snapshot()
        assert snap.histogram("link.queue_sample.bytes", channel=ch.name)["count"] == 3
        assert snap.histogram("link.utilization", channel=ch.name)["count"] == 3

    def test_stopped_timeline_lets_the_heap_drain(self):
        net, h1, h2 = self._busy_net()
        obs = Observer.attach(net)
        obs.start_timeline(0.01)
        net.run(until=0.02)
        obs.stop_timeline()
        net.run()  # must return: the pending wakeup fires as a no-op
        assert net.sim.now >= 0.02

    def test_a_restart_within_one_period_keeps_one_sampling_chain(self):
        net = Network(linear(2), seed=3)
        obs = Observer.attach(net)
        obs.start_timeline(1.0)
        # the wakeup due at 1.0 was scheduled before the stop: it must not
        # sample, nor keep a second chain ticking next to the new one
        net.sim.call_at(0.5, obs.stop_timeline)
        net.sim.call_at(0.6, obs.start_timeline, 1.0)
        net.run(until=3.0)
        ch = net.host("h1").ports[0]
        for metric in ("link.queue_sample.bytes", "link.utilization"):
            series = obs.timeline.samples(metric, ch.name)
            assert [t for t, _ in series] == pytest.approx([1.6, 2.6])

    def test_start_is_idempotent(self):
        net, h1, h2 = self._busy_net()
        obs = Observer.attach(net)
        t1 = obs.start_timeline(0.01)
        t2 = obs.start_timeline(0.01)
        assert t1 is t2
        net.run(until=0.02)
        obs.stop_timeline()
        ch = net.host("h1").ports[0]
        # One sampler, not two: exactly one sample per period.
        assert len(obs.timeline.samples("link.queue_sample.bytes", ch.name)) == 2
