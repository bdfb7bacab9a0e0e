"""Roll a ``cProfile`` run up into layers named after the repo's modules.

A Python function belongs to the layer of its source file.  Time spent in
anything else — C built-ins, the standard library, numpy, networkx — is
pushed up the profile's caller edges, split in proportion to each edge's
cumulative time, until it lands on a ``repro`` function; what never does
(and the harness's own code) is ``host.other``.  So ``sdn.discovery.self_s``
includes the networkx search it asked for, and the layers' ``self_s`` sum
to the whole profiled time.
"""

from __future__ import annotations

import os
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))

#: modules that are a layer of their own, and where the package's other
#: files go
_OWN = {
    "sim": ({"engine", "resources", "trace"}, "sim.engine"),
    "net": ({"link", "switch", "host", "packet", "flowtable", "fluid", "hybrid",
             "topology", "network"}, "net.other"),
    "transport": ({"tcp", "ssl"}, "transport.other"),
    "core": ({"controller", "client", "maga", "collision", "restrictions"},
             "core.other"),
    "sdn": ({"controller", "discovery", "l3app"}, "sdn.controller"),
}
#: packages that are one layer as a whole
_WHOLE = {"anonymity", "controlplane", "tor", "crypto", "faults", "obs",
          "workloads", "analysis"}

LAYERS = [
    "sim.engine", "sim.resources", "sim.trace",
    "net.link", "net.switch", "net.host", "net.packet", "net.flowtable",
    "net.fluid", "net.hybrid", "net.topology", "net.network", "net.other",
    "transport.tcp", "transport.ssl", "transport.other",
    "core.controller", "core.client", "core.maga", "core.collision",
    "core.restrictions", "core.other",
    "anonymity", "sdn.controller", "sdn.discovery", "sdn.l3app",
    "controlplane", "tor", "crypto", "faults", "obs", "workloads", "analysis",
    "host.other",
]

_MARKER = os.sep + "repro" + os.sep


def layer_of(code) -> str | None:
    """The layer owning a profiled function, or None for foreign code."""
    if isinstance(code, str):  # a C built-in
        return None
    filename = code.co_filename
    if filename.startswith(HERE):
        return "host.other"
    at = filename.rfind(_MARKER)
    if at < 0:
        return None
    pkg, _, rest = filename[at + len(_MARKER):].partition(os.sep)
    if pkg in _WHOLE:
        return pkg
    if pkg in _OWN:
        own, other = _OWN[pkg]
        mod = rest.removesuffix(".py")
        return f"{pkg}.{mod}" if mod in own else other
    return "host.other"


def rollup(entries) -> tuple[dict[str, float], dict[str, int], int]:
    """``(self_s by layer, calls by layer, total calls)`` of a profile.

    ``entries`` is ``cProfile.Profile.getstats()``.  ``calls`` counts the
    layer's own Python functions; the total also counts foreign calls, which
    are booked to ``host.other`` so the layers add up to it.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    owner = {}
    pending: dict = {}
    callers = defaultdict(list)
    total_calls = 0
    for entry in entries:
        total_calls += entry.callcount
        layer = owner[entry.code] = layer_of(entry.code)
        if layer is None:
            pending[entry.code] = entry.inlinetime
            calls["host.other"] += entry.callcount
        else:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.totaltime or 1e-12))
    # Recursion among foreign functions only ever shrinks what is pending,
    # so a bounded number of passes leaves a negligible remainder.
    for _ in range(32):
        if not pending:
            break
        pushed: dict = defaultdict(float)
        for code, seconds in pending.items():
            edges = callers.get(code)
            if not edges:
                self_s["host.other"] += seconds
                continue
            weight = sum(w for _, w in edges)
            for caller, w in edges:
                layer = owner.get(caller)
                if layer is None:
                    pushed[caller] += seconds * w / weight
                else:
                    self_s[layer] += seconds * w / weight
        pending = pushed
    self_s["host.other"] += sum(pending.values())
    return dict(self_s), dict(calls), total_calls


def function_calls(entries, module: str, names: tuple[str, ...]) -> int:
    """Calls of the named functions defined in ``repro/<module>.py``."""
    suffix = os.sep + os.path.join("repro", *module.split(".")) + ".py"
    return sum(
        entry.callcount for entry in entries
        if not isinstance(entry.code, str)
        and entry.code.co_name in names
        and entry.code.co_filename.endswith(suffix)
    )
