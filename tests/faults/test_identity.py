"""No fault machinery effect: an empty schedule leaves runs byte-identical.

Mirrors the observability layer's disabled-path guarantee
(tests/obs/test_observer_effect.py): a deployment with an *empty*
FaultSchedule attached must dispatch exactly the events (``step_log``:
when, heap sequence number, callable) and record exactly the journey rows
(every packet event) of a deployment with no schedule at all — no events
scheduled, no fault plane hooked, no RNG touched, no heap perturbation
from the failure detector.
"""

from repro.core import deploy_mic
from repro.faults import FaultSchedule
from tests.watchers import step_log

MESSAGE = b"f" * 300


def _echo_run(faults=None, seed=7):
    """One seeded MIC echo h1 <-> h16; returns ((dispatch log, journey
    rows), end time, dep)."""
    dep = deploy_mic(seed=seed, faults=faults, journey=True)
    steps = step_log(dep.sim)
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
    return (steps, dep.journey.rows()), dep.sim.now, dep


def test_empty_schedule_is_byte_identical():
    plain, t_plain, _ = _echo_run(faults=None)
    sched = FaultSchedule(seed=99)
    faulted, t_faulted, dep = _echo_run(faults=sched)
    assert t_plain == t_faulted
    assert plain == faulted and plain[0] and plain[1]
    # ... and the schedule really attached as a no-op, not not-at-all.
    assert sched.net is dep.net
    assert sched.injected_events == 0
    assert dep.ctrl.faults is None  # no fault plane -> legacy install path


def test_timed_only_schedule_leaves_install_path_alone():
    """A schedule with only timed faults (no loss/partition) never hooks the
    controller's per-message fault plane: installs stay on the direct path
    and the flap itself is the only divergence."""
    sched = FaultSchedule()
    sched.link_flap("c1", "c2", at_s=50.0, down_for_s=1.0)  # beyond horizon
    _, _, dep = _echo_run(faults=sched)
    assert dep.ctrl.faults is None
    assert sched.injected_events == 2


def test_immediate_detector_defaults_do_not_perturb():
    """The default controller has a zero-latency detector; its synchronous
    deliver() must not schedule events.  (The byte-identity test above
    already proves this end-to-end; this pins the unit-level contract.)"""
    _, _, dep = _echo_run()
    assert dep.ctrl.detector.immediate
    calls = []
    dep.ctrl.detector.deliver(lambda a, b: calls.append((a, b)), 1, 2)
    assert calls == [(1, 2)]  # ran synchronously, not via the heap
