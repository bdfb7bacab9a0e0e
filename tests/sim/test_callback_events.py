"""``call_later`` / ``call_at`` put a plain call on the heap.

A heap entry is ``(when, seq, fn, args)``: the call is not an event, so it
returns nothing and nothing can wait on it, yet it is ordered by
``(time, seq)`` like every event and stays visible to the opt-in sanitizer
and profiler hooks.
"""

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.obs.prof import Profiler
from repro.sim import SimulationError, Simulator


def test_call_later_returns_nothing_and_runs_the_function_with_its_args():
    sim = Simulator()
    seen = []
    assert sim.call_later(2.0, lambda a, b: seen.append((sim.now, a, b)), "x", 7) is None
    assert sim.call_at(3.0, seen.append, "at") is None
    sim.run()
    assert seen == [(2.0, "x", 7), "at"]


def test_call_at_takes_args_too():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, sim.call_at, 5.0, seen.append, "late")
    sim.run()
    assert seen == ["late"] and sim.now == 5.0


def test_a_process_yielding_a_call_fails_naming_the_process():
    sim = Simulator()

    def waiter():
        yield sim.call_later(3.0, lambda: None)

    sim.process(waiter(), name="rto-waiter")
    with pytest.raises(SimulationError, match="process 'rto-waiter' yielded None"):
        sim.run()


def test_a_process_waits_on_a_timeout_instead():
    sim = Simulator()
    order = []

    def waiter():
        sim.call_later(3.0, order.append, "fn")
        got = yield sim.timeout(3.0, "woke")
        order.append(("resumed", sim.now, got))

    sim.process(waiter())
    sim.run()
    assert order == ["fn", ("resumed", 3.0, "woke")]


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
    def boom(*_):
        raise ValueError("boom")

    sim = Simulator()
    sim.call_later(1.0, boom)
    sim.call_later(2.0, boom)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert sim.now == 1.0 and sim.peek() == 2.0  # the raising call is gone

    # An event whose callback raises stays unprocessed.
    sim = Simulator()
    ev = sim.timeout(1.0)
    ev.callbacks.append(boom)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert ev.triggered and not ev.processed


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
    prof._hook_sim(sim)  # what Profiler.hook(net) does to a network's simulator
    for i in range(5):
        sim.call_later(float(i), lambda: None)
    sim.timeout(9.0)
    gate = sim.event()
    sim.call_later(10.0, gate.succeed)  # an event's method, called: a call
    sim.run()
    counts = prof.counters["sim.dispatch"]
    # `event.Callback` is a label for a plain call, not a class
    assert counts["event.Callback"] == 6
    assert counts["event.Timeout"] == 1
    assert counts["event.Event"] == 1
    assert prof.dispatches == 8
