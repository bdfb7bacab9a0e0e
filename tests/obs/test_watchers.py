"""Watchers bracket from outside: the sanitizer, the profiler and the
observer wrap a live instance and take their wrappers off again; no kernel
or host code knows a watcher exists, and a second watcher of one kind is
refused."""

import ast
import inspect

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.net import Network, linear
from repro.net import host as host_module
from repro.obs import Observer, Profiler
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


def _race(sim):
    """Two independently scheduled workers that meet on a Resource at t=1."""
    res = Resource(sim, capacity=1)

    def worker():
        yield sim.timeout(1.0)
        yield res.request()
        yield sim.timeout(0.5)
        res.release()

    sim.process(worker())
    sim.process(worker())
    sim.rng("watchers")  # a named stream, looked up from one module


def _watched(order):
    """Run the race under the watchers in ``order``; (findings, counts, net)."""
    net = Network(linear(2, hosts_per_switch=1), seed=1)
    san = prof = None
    for watcher in order:
        if watcher == "sanitizer":
            san = SimSanitizer.attach(net.sim)
        else:
            prof = Profiler().hook(net)
    _race(net.sim)
    net.run()
    findings = [f.format() for f in san.findings] if san else None
    counts = prof.report().counts() if prof else None
    return findings, counts, net, san, prof


def test_sanitizer_and_profiler_see_the_same_in_either_order():
    findings, _, _, _, _ = _watched(["sanitizer"])
    _, counts, _, _, _ = _watched(["profiler"])
    assert any("same-time-race" in f for f in findings)
    assert counts["sim.dispatch"]["counters"]["heap.depth.max"] > 0
    for order in (["sanitizer", "profiler"], ["profiler", "sanitizer"]):
        both_findings, both_counts, _, _, _ = _watched(order)
        assert both_findings == findings, order
        assert both_counts == counts, order


def test_detaching_the_sanitizer_restores_the_bare_simulator():
    sim = Simulator(seed=1)
    bare, counter = dict(vars(sim)), sim._counter
    san = SimSanitizer.attach(sim)
    assert {"step", "rng"} <= set(vars(sim)) and sim._counter is not counter
    _race(sim)
    sim.run()
    san.detach()
    assert vars(sim).keys() == bare.keys() and sim._counter is counter
    assert sim.step.__func__ is Simulator.step and sim.rng.__func__ is Simulator.rng
    assert sim._sanitizer is None


@pytest.mark.parametrize("order", [
    ["sanitizer", "profiler"], ["profiler", "sanitizer"],
])
def test_a_detached_sanitizer_stops_watching_under_either_order(order):
    """Under a profiler hooked after it, the sanitizer's ``step`` wrapper
    stays in the chain after ``detach()`` but only passes through; over
    one, ``detach()`` hands ``step`` back to the profiler's wrapper."""
    findings, counts, net, san, prof = _watched(order)
    san.detach()
    if order[-1] == "sanitizer":
        assert net.sim.step.profiler is prof
    _race(net.sim)
    net.run()
    assert [f.format() for f in san.findings] == findings
    again = prof.report().counts()["sim.dispatch"]
    assert again["calls"] == 2 * counts["sim.dispatch"]["calls"]


def test_hooking_the_profiler_again_over_a_sanitizer_adds_no_second_frame():
    _, counts, net, san, prof = _watched(["profiler", "sanitizer"])
    prof.hook(net)  # its wrapper sits under the sanitizer's: already counting
    _race(net.sim)
    net.run()
    again = prof.report().counts()["sim.dispatch"]
    assert again["calls"] == 2 * counts["sim.dispatch"]["calls"]
    assert net.sim.step.__wrapped__.profiler is prof


def test_a_second_sanitizer_is_refused_until_the_first_detaches():
    sim = Simulator()
    first = SimSanitizer.attach(sim)
    with pytest.raises(ValueError, match="SimSanitizer"):
        SimSanitizer.attach(sim)
    assert sim._sanitizer is first
    first.detach()
    second = SimSanitizer.attach(sim)
    assert sim._sanitizer is second and second.sim is sim
    second.detach()
    assert "step" not in vars(sim)


def test_a_second_observer_is_refused_until_the_first_detaches():
    net = Network(linear(2, hosts_per_switch=1), seed=0)
    first = Observer.attach(net)
    with pytest.raises(ValueError, match="Observer"):
        Observer.attach(net)
    assert net.observer is first and all("receive" in vars(h) for h in net.hosts())
    first.detach()
    assert net.observer is None
    assert all("receive" not in vars(h) for h in net.hosts())
    first.detach()  # a second detach changes nothing
    second = Observer.attach(net)
    assert net.observer is second and all("receive" in vars(h) for h in net.hosts())


def _attributes(node):
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_no_kernel_method_but_init_names_a_watcher():
    """The simulator's methods know no watcher: only ``__init__`` sets the
    ``_sanitizer`` data slot (the resource probes read it)."""
    tree = ast.parse(inspect.getsource(engine))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Simulator"]
    named = {
        fn.name
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and {"_sanitizer", "_prof"} & _attributes(fn)
    }
    assert named == {"__init__"}


def test_hosts_carry_no_observer_slot():
    tree = ast.parse(inspect.getsource(host_module))
    assert "obs" not in _attributes(tree)
    net = Network(linear(2, hosts_per_switch=1), seed=0)
    assert not any(hasattr(h, "obs") for h in net.hosts())
