"""``call_later`` / ``call_at`` schedule a first-class event kind.

The returned :class:`Callback` is the heap entry itself — and still a full
:class:`Event`: waitable, extendable with callbacks, ordered by
``(time, seq)`` like everything else, and visible to the opt-in sanitizer
and profiler hooks.
"""

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.obs.prof import Profiler
from repro.sim import Callback, Event, SimulationError, Simulator


def test_call_later_returns_an_event_that_runs_the_function_with_its_args():
    sim = Simulator()
    seen = []
    ev = sim.call_later(2.0, lambda a, b: seen.append((sim.now, a, b)), "x", 7)
    assert isinstance(ev, Callback) and isinstance(ev, Event)
    assert ev.triggered and not ev.processed
    sim.run()
    assert seen == [(2.0, "x", 7)]
    assert ev.processed and ev.ok and ev.value is None


def test_call_at_takes_args_too():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, sim.call_at, 5.0, seen.append, "late")
    sim.run()
    assert seen == ["late"] and sim.now == 5.0


def test_a_process_can_wait_on_a_callback_event():
    sim = Simulator()
    order = []

    def waiter():
        got = yield sim.call_later(3.0, order.append, "fn")
        order.append(("resumed", sim.now, got))

    sim.process(waiter())
    sim.run()
    assert order == ["fn", ("resumed", 3.0, None)]


def test_a_process_can_wait_on_an_already_processed_callback_event():
    sim = Simulator()
    ev = sim.call_later(1.0, lambda: None)
    sim.run()
    assert ev.processed
    resumed = []

    def waiter():
        yield ev
        resumed.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert resumed == [1.0]


def test_appended_callbacks_run_after_the_function_in_append_order():
    sim = Simulator()
    order = []
    ev = sim.call_later(1.0, order.append, "fn")
    ev.callbacks.append(lambda e: order.append(("cb1", e is ev, e.processed)))
    ev.callbacks.append(lambda e: order.append("cb2"))
    sim.run()
    assert order == ["fn", ("cb1", True, False), "cb2"]
    assert ev.processed


def test_negative_delay_raises_and_schedules_nothing():
    sim = Simulator()
    with pytest.raises(SimulationError, match="into the past"):
        sim.call_later(-0.1, lambda: None)
    sim.run(until=2.0)
    with pytest.raises(SimulationError, match="into the past"):
        sim.call_at(1.0, lambda: None)
    assert sim.peek() == float("inf")


def test_same_time_callbacks_run_in_schedule_order_among_other_event_kinds():
    sim = Simulator()
    order = []
    sim.call_later(1.0, order.append, "cb-a")
    sim.timeout(1.0).callbacks.append(lambda _e: order.append("timeout"))
    sim.call_at(1.0, order.append, "cb-b")
    gate = sim.event()
    gate.callbacks.append(lambda _e: order.append("event"))
    gate.succeed(delay=1.0)
    sim.call_later(1.0, order.append, "cb-c")
    sim.run()
    assert order == ["cb-a", "timeout", "cb-b", "event", "cb-c"]


def test_a_raising_function_propagates_and_leaves_the_event_unprocessed():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    ev = sim.call_later(1.0, boom)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert not ev.processed


def test_the_stored_timer_event_of_a_call_can_be_kept_and_compared():
    # TcpConnection keeps the returned event to tell a stale timer from the
    # current one; identity is all it needs.
    sim = Simulator()
    fired = []
    current = {}

    def on_timer(tag):
        fired.append((tag, current["ev"] is events[tag]))

    events = {}
    events["old"] = sim.call_later(1.0, on_timer, "old")
    events["new"] = current["ev"] = sim.call_later(2.0, on_timer, "new")
    sim.run()
    assert fired == [("old", False), ("new", True)]


class _Shared:
    """Weak-referenceable stand-in for a piece of shared simulation state."""


def test_sanitizer_sees_callback_events_and_keeps_zero_delay_chains_together():
    sim = Simulator()
    san = SimSanitizer.attach(sim)
    shared = _Shared()

    def child():
        san.touch(shared, "write", label="shared")

    def parent():
        san.touch(shared, "write", label="shared")
        sim.call_later(0.0, child)  # same causal chain: program order, no race

    sim.call_later(1.0, parent)
    sim.run()
    san.detach()
    assert [f.kind for f in san.findings] == []

    # Two independent callbacks writing the same state at one timestamp race.
    sim2 = Simulator()
    san2 = SimSanitizer.attach(sim2)
    state = _Shared()
    sim2.call_later(1.0, lambda: san2.touch(state, "write", label="state"))
    sim2.call_later(1.0, lambda: san2.touch(state, "write", label="state"))
    sim2.run()
    san2.detach()
    assert any(f.kind == "same-time-race" for f in san2.findings)


def test_profiler_counts_callback_dispatches_under_their_public_kind():
    sim = Simulator()
    prof = Profiler()
    sim._prof = prof  # what Profiler.hook(net) does for a whole network
    for i in range(5):
        sim.call_later(float(i), lambda: None)
    sim.timeout(9.0)
    sim.run()
    counts = prof.counters["sim.dispatch"]
    assert counts["event.Callback"] == 5
    assert counts["event.Timeout"] == 1
    assert prof.dispatches == 6
