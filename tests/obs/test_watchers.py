"""Watchers bracket from outside: the sanitizer, the profiler, the
observer, the journey recorder and the tests' ``step_log`` wrap a live
instance and take their wrappers off again; no kernel, node, switch, link
or host code knows a watcher exists, and a second watcher of one kind is
refused.  All of them wrap through ``repro.obs.seam`` (nothing else in
``src/`` binds a wrapper onto an instance), so they stack on one method in
any order and each leaves without taking another with it."""

import ast
import inspect
from pathlib import Path

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.net import FlowEntry, Match, Network, Output, linear
from repro.net import host as host_module
from repro.net import link as link_module
from repro.net import node as node_module
from repro.net import switch as switch_module
from repro.obs import JourneyRecorder, Observer, Profiler
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

from tests.watchers import step_log, watchers


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
    """Under or over a profiler, ``detach()`` splices the sanitizer's links
    out: the profiler's is the only one left on ``step``, ``rng`` is the
    class's again, and the profiler keeps counting."""
    findings, counts, net, san, prof = _watched(order)
    san.detach()
    assert watchers(net.sim, "step") == [prof]
    assert "rng" not in vars(net.sim)
    _race(net.sim)
    net.run()
    assert [f.format() for f in san.findings] == findings
    again = prof.report().counts()["sim.dispatch"]
    assert again["calls"] == 2 * counts["sim.dispatch"]["calls"]


def test_hooking_the_profiler_again_over_a_sanitizer_adds_no_second_frame():
    _, counts, net, san, prof = _watched(["profiler", "sanitizer"])
    prof.hook(net)  # its link sits under the sanitizer's: already counting
    _race(net.sim)
    net.run()
    again = prof.report().counts()["sim.dispatch"]
    assert again["calls"] == 2 * counts["sim.dispatch"]["calls"]
    assert watchers(net.sim, "step") == [san, prof]


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


def _names(tree):
    return _attributes(tree) | {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
    } | {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)} | {
        n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("module", [node_module, switch_module, link_module, host_module])
def test_no_node_switch_link_or_host_names_the_journey(module):
    names = _names(ast.parse(inspect.getsource(module)))
    assert not [name for name in names if "journey" in name.lower()]


#: every method the observer or the journey recorder wraps
WRAPPED = ("send_packet", "receive", "_classify", "apply", "send", "_deliver", "set_state")


def _echo_chain():
    """linear(2) routed both ways; h2 answers each datagram on port 7."""
    net = Network(linear(2, hosts_per_switch=1), seed=0)
    h1, h2 = net.host("h1"), net.host("h2")
    for sw, toward_h2, toward_h1 in (("s1", "s2", "h1"), ("s2", "h2", "s1")):
        table = net.switch(sw).table
        table.install(FlowEntry(Match(ip_dst=h2.ip), [Output(net.port(sw, toward_h2))]))
        table.install(FlowEntry(Match(ip_dst=h1.ip), [Output(net.port(sw, toward_h1))]))
    h2.bind("udp", 7, lambda host, packet: host.send_packet(
        host.make_packet(h1.ip, proto="udp", dport=8, payload_size=10)))
    h1.bind("udp", 8, lambda host, packet: None)

    def echo():
        h1.send_packet(h1.make_packet(h2.ip, proto="udp", dport=7, payload_size=10))
        net.run()

    return net, echo


@pytest.mark.parametrize("leaves", ["observer", "journey"])
@pytest.mark.parametrize("order", [["observer", "journey"], ["journey", "observer"]])
def test_the_observer_and_the_journey_stack_and_leave_in_either_order(order, leaves):
    net, echo = _echo_chain()
    attached = {
        kind: Observer.attach(net) if kind == "observer" else JourneyRecorder.attach(net)
        for kind in order
    }
    prof = Profiler().hook(net)
    obs, rec = attached["observer"], attached["journey"]
    # the profiler's links (the hosts' tables, the observer's hook) sit
    # beside these: leaving takes none of them away
    assert {method for method, *_ in rec._seams()} == set(WRAPPED) - {"lookup"}

    def seen():
        rows = sum(1 for row in rec.rows() if row[1] == "host.rx")
        latencies = sum(
            hist.count for (name, _), hist in obs._histograms.items()
            if name == "net.packet_latency_s"
        )
        return {"journey": rows, "observer": latencies}

    echo()
    assert seen() == {"journey": 2, "observer": 2}
    attached[leaves].detach()
    echo()
    stays = "journey" if leaves == "observer" else "observer"
    assert seen() == {leaves: 2, stays: 4}
    assert prof.report().counts()["obs.hook"]["counters"]["host_rx"] == (
        4 if stays == "observer" else 2
    )
    attached[stays].detach()
    echo()
    assert seen() == {leaves: 2, stays: 4}
    instances = [*net.hosts(), *net.switches(), *(sw.table for sw in net.switches())]
    instances += [ch for link in net.links for ch in (link.forward, link.reverse)]
    assert not [
        (getattr(obj, "name", obj), name)
        for obj in instances for name in WRAPPED if name in vars(obj)
    ]


def _watch_all(order):
    """The echo and the race under the watchers in ``order``:
    ``(what each saw, the network, each watcher)``.

    The profiler's ``obs.hook`` row is left out: it brackets the observer
    and the journey only when they were attached before it.
    """
    net, echo = _echo_chain()
    seen, owners = {}, {}
    for kind in order:
        if kind == "observer":
            obs = owners[kind] = Observer.attach(net)
            seen[kind] = lambda: sorted(
                (key, hist.values) for key, hist in obs._histograms.items())
        elif kind == "journey":
            rec = owners[kind] = JourneyRecorder.attach(net)
            seen[kind] = rec.rows
        elif kind == "profiler":
            prof = owners[kind] = Profiler().hook(net)
            seen[kind] = lambda: {
                name: row for name, row in prof.report().counts().items()
                if name != "obs.hook"
            }
        elif kind == "sanitizer":
            san = owners[kind] = SimSanitizer.attach(net.sim)
            seen[kind] = san.report
        else:
            log = owners[kind] = step_log(net.sim)
            seen[kind] = lambda: list(log)
    _race(net.sim)
    echo()
    return {kind: look() for kind, look in seen.items()}, net, owners


KINDS = ["observer", "journey", "profiler", "sanitizer", "step_log"]


@pytest.mark.parametrize("order", [
    KINDS,
    KINDS[::-1],
    ["sanitizer", "observer", "step_log", "profiler", "journey"],
    ["step_log", "profiler", "journey", "sanitizer", "observer"],
])
def test_every_watcher_sees_under_the_others_what_it_sees_alone(order):
    """Each of the five sees the same run whatever else watches and in
    whatever order they went on; a detached sanitizer leaves the others'
    ``step`` links stacked as they were."""
    alone = {kind: _watch_all([kind])[0][kind] for kind in KINDS}
    assert "same-time-race" in alone["sanitizer"] and alone["step_log"]
    assert alone["journey"] and alone["observer"][0][1]
    seen, net, owners = _watch_all(order)
    assert seen == alone
    owners["sanitizer"].detach()
    assert watchers(net.sim, "step") == [
        owners[kind] for kind in reversed(order) if kind in ("profiler", "step_log")
    ]


def _binds_a_wrapper(tree):
    """Lines that store a function onto an attribute (an assignment or a
    ``setattr`` of a ``def`` or ``lambda`` in scope), or that name
    ``MethodType`` or ``__wrapped__``."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, defs, params):
        def is_fn(value):
            if isinstance(value, ast.Tuple):
                return any(is_fn(e) for e in value.elts)
            return isinstance(value, ast.Lambda) or (
                isinstance(value, ast.Name) and value.id in defs and value.id not in params)

        if isinstance(node, functions):
            defs = defs | {n.name for n in ast.walk(node) if isinstance(n, functions)}
            params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        if isinstance(node, ast.Assign) and is_fn(node.value) and any(
                isinstance(t, ast.Attribute) for target in node.targets for t in ast.walk(target)):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) == 3 and is_fn(node.args[2])):
            found.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "MethodType") or (
                isinstance(node, ast.Attribute) and node.attr in ("MethodType", "__wrapped__")):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, defs, params)

    visit(tree, {n.name for n in tree.body if isinstance(n, functions)}, set())
    return found


def test_only_the_seam_binds_a_wrapper_onto_an_instance():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    binding = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if _binds_a_wrapper(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert binding == {"obs/seam.py"}


def test_the_pin_sees_a_closure_bound_onto_an_instance():
    assert _binds_a_wrapper(ast.parse(
        "def hook(sim):\n"
        "    inner = sim.step\n"
        "    def step():\n"
        "        return inner()\n"
        "    sim.step = step\n"
    )) == [5]
    assert _binds_a_wrapper(ast.parse("def f(obj, name, g):\n    setattr(obj, name, g)\n")) == []
