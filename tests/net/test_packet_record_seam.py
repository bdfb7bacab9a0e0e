"""The journey is the data path's one inline recorder.

There is no trace log: control-plane actions and state changes live in the
controllers' counters and spans, the switches', hosts' and links' own
state, and the flow tables; a test that wants the moment of an event wraps
the instance from outside (``tests/watchers.py``).  So the only hook
guards left on the packet path are the journey's, and the ROADMAP's
hook-guard grep over it reads exactly 11.  Channels carry no trace log at
all, and the per-packet trace renderer ``repro.net.tracefmt`` is gone; a
packet reads back as journey rows (``format_hop_table``,
``python -m repro.obs journey``, the Perfetto export).
"""

import ast
import importlib.util
import pathlib
import re

import repro
from repro.net import Network, linear

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


def test_the_hot_path_keeps_exactly_the_journey_s_hook_guards():
    lines = [
        f"{path}: {line.strip()}"
        for path in HOT_PATH
        for line in (SRC / path).read_text(encoding="utf-8").splitlines()
        if HOOK_GUARD.search(line)
    ]
    assert len(lines) == 11, "\n".join(lines)
    assert all("journey" in line for line in lines), "\n".join(lines)


def test_channels_carry_no_trace_log():
    assert "trace" not in (SRC / "net" / "link.py").read_text(encoding="utf-8")


def test_the_per_packet_trace_renderer_is_gone():
    assert importlib.util.find_spec("repro.net.tracefmt") is None
