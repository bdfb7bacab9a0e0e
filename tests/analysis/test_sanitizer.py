"""Sanitizer tests: seeded hazards are caught, clean runs stay clean, and
an attached sanitizer never perturbs the simulation it watches."""

from repro.analysis.sanitizer import SimSanitizer
from repro.faults import run_chaos, scorecard_json
from repro.sim.engine import Simulator
from repro.sim.resources import Resource, Store


def _worker_pair(sim, resource, hold_s=0.5):
    """Two independently-scheduled processes that collide at t=1.0."""
    def worker():
        yield sim.timeout(1.0)
        req = resource.request()
        yield req
        yield sim.timeout(hold_s)
        resource.release()
    sim.process(worker())
    sim.process(worker())


class TestSameTimeRace:
    def test_seeded_race_is_caught(self):
        sim = Simulator(seed=1)
        san = SimSanitizer.attach(sim)
        _worker_pair(sim, Resource(sim, capacity=1))
        sim.run()
        assert "same-time-race" in san.kinds()
        [f] = [f for f in san.findings if f.kind == "same-time-race"]
        assert f.time == 1.0
        assert "independent event chains" in f.detail

    def test_causally_chained_accesses_do_not_race(self):
        """One chain touching a resource twice at one timestamp is ordered."""
        sim = Simulator(seed=1)
        san = SimSanitizer.attach(sim)
        res = Resource(sim, capacity=2)

        def chain():
            yield sim.timeout(1.0)
            a = res.request()
            yield a
            b = res.request()  # same time, same causal root
            yield b
            res.release()
            res.release()

        sim.process(chain())
        sim.run()
        assert san.findings == []

    def test_different_timestamps_do_not_race(self):
        sim = Simulator(seed=1)
        san = SimSanitizer.attach(sim)
        res = Resource(sim, capacity=1)

        def worker(at):
            yield sim.timeout(at)
            req = res.request()
            yield req
            res.release()

        sim.process(worker(1.0))
        sim.process(worker(2.0))
        sim.run()
        assert san.findings == []

    def test_fifo_store_ops_commute_by_default_but_not_strict(self):
        def drive(strict):
            sim = Simulator(seed=1)
            san = SimSanitizer.attach(sim, strict=strict)
            store = Store(sim)

            def producer():
                yield sim.timeout(1.0)
                store.put("x")

            sim.process(producer())
            sim.process(producer())
            sim.run()
            return san

        assert drive(strict=False).findings == []
        assert "same-time-race" in drive(strict=True).kinds()

    def test_race_reported_once_per_state(self):
        sim = Simulator(seed=1)
        san = SimSanitizer.attach(sim)
        res = Resource(sim, capacity=2)

        def worker():
            for _ in range(3):
                yield sim.timeout(1.0)
                req = res.request()
                yield req
                res.release()

        sim.process(worker())
        sim.process(worker())
        sim.run()
        races = [f for f in san.findings if f.kind == "same-time-race"]
        assert len(races) == 1


class TestRngDiscipline:
    def test_stream_shared_across_modules_flagged(self):
        sim = Simulator(seed=0)
        san = SimSanitizer.attach(sim)
        # a second consumer module, faked via exec-with-__name__
        other = {"__name__": "repro.fake.consumer"}
        exec("def ask(sim):\n    return sim.rng('shared-stream')", other)
        sim.rng("shared-stream")       # this module
        other["ask"](sim)              # "repro.fake.consumer"
        assert "rng-stream-shared" in san.kinds()
        [f] = san.findings
        assert f.subject == "shared-stream"
        assert "repro.fake.consumer" in f.detail

    def test_single_module_stream_is_fine(self):
        sim = Simulator(seed=0)
        san = SimSanitizer.attach(sim)
        sim.rng("mine")
        sim.rng("mine")
        sim.rng("other")
        assert san.findings == []

    def test_shared_stream_reported_once(self):
        sim = Simulator(seed=0)
        san = SimSanitizer.attach(sim)
        other = {"__name__": "repro.fake.consumer"}
        exec("def ask(sim):\n    return sim.rng('s')", other)
        sim.rng("s")
        other["ask"](sim)
        other["ask"](sim)
        assert len(san.findings) == 1


class TestTeardown:
    def test_undrained_store_flagged(self):
        sim = Simulator(seed=0)
        san = SimSanitizer.attach(sim)
        store = Store(sim)

        def producer():
            yield sim.timeout(0.1)
            store.put("orphan")

        sim.process(producer())
        sim.run()
        san.check_teardown()
        assert "undrained-store" in san.kinds()

    def test_drained_store_clean(self):
        sim = Simulator(seed=0)
        san = SimSanitizer.attach(sim)
        store = Store(sim)

        def producer():
            yield sim.timeout(0.1)
            store.put("x")

        def consumer():
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        san.check_teardown()
        assert san.findings == []

    def test_leaked_owner_and_unfreed_cookie_flagged(self):
        """A channel dict manipulated behind the controller's back leaks."""
        sim = Simulator(seed=0)

        class FakeRegistry:
            def owners(self):
                return {"ch7/c99", "not-a-channel-owner"}

        class FakeMic:
            channels = {}              # channel 7 is gone
            compiled = {99: ([], [], [])}
            registry = FakeRegistry()

        san = SimSanitizer.attach(sim)
        san.check_teardown(mic=FakeMic())
        assert {"leaked-owner", "unfreed-cookie"} <= san.kinds()
        leaked = [f for f in san.findings if f.kind == "leaked-owner"]
        assert [f.subject for f in leaked] == ["ch7/c99"]


class TestDetachAndReport:
    def test_detach_restores_bare_simulator(self):
        sim = Simulator(seed=0)
        san = SimSanitizer.attach(sim)
        assert sim._sanitizer is san
        san.detach()
        assert sim._sanitizer is None

    def test_report_clean_and_with_findings(self):
        sim = Simulator(seed=1)
        san = SimSanitizer.attach(sim)
        assert san.report() == "sanitizer: clean"
        _worker_pair(sim, Resource(sim, capacity=1))
        sim.run()
        text = san.report()
        assert "same-time-race" in text
        assert text.endswith("1 finding(s)")


class TestChaosIntegration:
    def test_sanitized_chaos_is_clean_and_byte_identical(self):
        """The acceptance gate: a sanitizer-enabled fat_tree(4) chaos run
        reports zero findings, and the scorecard matches the unsanitized
        run byte for byte (the sanitizer only observes)."""
        plain, _dep = run_chaos(seed=0)
        san = SimSanitizer()
        sanitized, _dep = run_chaos(seed=0, sanitizer=san)
        assert san.findings == [], san.report()
        assert scorecard_json(plain) == scorecard_json(sanitized)
