"""``Simulator.now`` is a plain attribute only the kernel writes, and
``call_at`` is ``call_later`` on the same arithmetic without the second call.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim import SimulationError, Simulator
from tests.attribute_stores import attribute_writers


def test_only_the_kernel_writes_the_clock():
    # the initial 0.0, the event being stepped, and run(until=...)'s clamp
    assert attribute_writers("now") == {"sim/engine.py": {"__init__", "step", "run"}}


def test_now_is_an_instance_attribute_not_a_property():
    sim = Simulator()
    assert "now" in vars(sim) and not hasattr(Simulator, "now")
    sim.call_later(1.5, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0  # stepped to 1.5, then clamped to the horizon


def test_call_at_into_the_past_raises_what_call_later_raises():
    messages = []
    for schedule in (
        lambda sim: sim.call_later(0.25 - sim.now, lambda: None),
        lambda sim: sim.call_at(0.25, lambda: None),
    ):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError) as err:
            schedule(sim)
        messages.append(str(err.value))
        assert sim.peek() == float("inf")  # nothing was scheduled
    assert messages[0] == messages[1] == "cannot schedule into the past (delay=-0.75)"


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.call_later(float("nan"), lambda: None),
    lambda sim: sim.call_at(float("nan"), lambda: None),
    lambda sim: sim.timeout(float("nan")),
], ids=["call_later", "call_at", "timeout"])
def test_a_nan_delay_is_refused_and_later_calls_still_run(schedule):
    """``delay < 0`` let nan through: the nan heap entry then stopped
    ``run()`` silently, before calls due after it ever ran."""
    sim = Simulator()
    ran = []
    for i in range(1, 11):
        sim.call_later(i * 0.5, ran.append, i * 0.5)
    with pytest.raises(SimulationError, match="nan"):
        schedule(sim)
    sim.run()
    assert ran == [i * 0.5 for i in range(1, 11)] and sim.now == 5.0


@given(
    now=st.floats(0.0, 1e6, allow_nan=False),
    ahead=st.floats(0.0, 1e6, allow_nan=False),
)
def test_call_at_lands_on_exactly_the_time_call_later_would(now, ahead):
    when = now + ahead
    pushed = []
    for schedule in (
        lambda sim: sim.call_later(when - sim.now, lambda: None),
        lambda sim: sim.call_at(when, lambda: None),
    ):
        sim = Simulator()
        sim.run(until=now)
        schedule(sim)
        (entry,) = sim._heap
        pushed.append(entry[:2])  # (when, seq)
    assert pushed[0][0] == pushed[1][0]  # ==, not isclose: the same float
    # both draw the fresh simulator's first sequence number
    assert pushed[0][1] == pushed[1][1] == 0
