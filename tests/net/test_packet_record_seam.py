"""The packet path records nothing inline.

There is no trace log: control-plane actions and state changes live in the
controllers' counters and spans, the switches', hosts' and links' own
state, and the flow tables; a test that wants the moment of an event wraps
the instance from outside (``tests/watchers.py``), and so does the journey
recorder (``repro.obs.seam``).  So no hook guard is left on the packet
path: the ROADMAP's hook-guard grep over it reads 0, and no node or
channel carries a recorder slot.  Channels carry no trace log at all, and
the per-packet trace renderer ``repro.net.tracefmt`` is gone; a packet
reads back as journey rows (``format_hop_table``,
``python -m repro.obs journey``, the Perfetto export).
"""

import ast
import importlib.util
import pathlib
import re

import repro
from repro.net import Network, linear
from repro.obs import FlightRecorder, JourneyRecorder

SRC = pathlib.Path(repro.__file__).parent

#: the ROADMAP's hook-guard grep and the files it reads
HOOK_GUARD = re.compile(r"(trace|journey|obs|_sanitizer)\b.*is (not )?None")
HOT_PATH = ("net/switch.py", "net/link.py", "net/host.py", "sim/engine.py")


def test_the_trace_log_module_is_gone():
    assert importlib.util.find_spec("repro.sim.trace") is None


def test_no_source_emits_on_a_trace_attribute():
    sites = []
    for file in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "trace"
            ):
                sites.append(f"{file.relative_to(SRC).as_posix()}:{node.lineno}")
    assert sites == []


def test_nodes_and_networks_carry_no_trace_attribute():
    net = Network(linear(2, hosts_per_switch=1))
    assert not hasattr(net, "trace")
    assert net.nodes and not any(hasattr(n, "trace") for n in net.nodes.values())


def test_the_hot_path_keeps_no_hook_guard():
    lines = [
        f"{path}: {line.strip()}"
        for path in HOT_PATH
        for line in (SRC / path).read_text(encoding="utf-8").splitlines()
        if HOOK_GUARD.search(line)
    ]
    assert lines == [], "\n".join(lines)


def test_a_recording_network_s_nodes_and_channels_carry_no_journey_slot():
    net = Network(linear(3, hosts_per_switch=1))
    rec = JourneyRecorder.attach(net, sample_rate=1.0, flight=FlightRecorder())
    channels = [ch for link in net.links for ch in (link.forward, link.reverse)]
    assert net.journey is rec and channels
    assert not any(hasattr(n, "journey") for n in net.nodes.values())
    assert not any(hasattr(ch, "journey") for ch in channels)


def test_channels_carry_no_trace_log():
    assert "trace" not in (SRC / "net" / "link.py").read_text(encoding="utf-8")


def test_the_per_packet_trace_renderer_is_gone():
    assert importlib.util.find_spec("repro.net.tracefmt") is None
