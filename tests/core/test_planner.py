"""The m-flow planner stands alone: it plans from the topology with no
simulator, its draws are MAGA collision-free, and a release gives back
everything a plan booked."""

import ast
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest

from repro.anonymity import STRATEGIES, MicRewrite, get_strategy
from repro.bench import experiments
from repro.core.planner import FlowIntent, Planner
from repro.net import fat_tree
from repro.sdn import TopologyView
from repro.sim.engine import Simulator

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def bare_planner(topo, strategy=None, seed=0, **kwargs):
    """A planner on its own: a routing view, the topology's port map and
    plain ``random.Random`` streams -- no network, no simulator."""
    mints: dict = {}
    return Planner(
        TopologyView(topo), topo.port_map(), strategy or MicRewrite(),
        random.Random(seed), streams=random.Random,
        ids=lambda name: mints.setdefault(name, itertools.count(1)), **kwargs,
    )


def test_128_fat_tree8_channels_plan_with_no_simulator_and_unique_keys():
    topo = fat_tree(8)
    hosts = topo.hosts()
    with mock.patch.object(Simulator, "__init__", side_effect=AssertionError("built")):
        planner = bare_planner(topo, mn_shift=1)
        rng = random.Random(1)
        plans = [
            planner.plan(FlowIntent(hosts[i], hosts[(i + 64) % 128], 7000 + i, 3,
                                    cookie=i, owner=f"ch{i}/c{i}"), rng)
            for i in range(128)
        ]
        compiled = [planner.strategy.compile_flow(plan, 1, rng) for plan in plans]
    assert len({plan.flow_id for plan in plans}) == 128
    # Every rule's match key is unique on its switch, decoy drops included.
    keys = [
        (sw, entry.match) for rules, _groups, drops in compiled
        for sw, entry in rules + drops
    ]
    assert len(set(keys)) == len(keys)
    # A labelled segment decodes, at the MN that pushed or swapped its
    # label, to the flow's id alone (MAGA, Sec IV-B3).
    for plan in plans:
        for walk, mns, addrs in plan.directions():
            for k, mn in enumerate(mns[:-1], start=1):
                a = addrs[k]
                assert planner.labels.owner_of(a.mpls) == walk[mn]
                space = planner.mn_spaces[walk[mn]]
                assert space.flow_id_of(a.src_ip, a.dst_ip, a.mpls) == plan.flow_id


def _books(planner):
    return {
        "ports": sorted(p for ports in planner.used_sports.values() for p in ports),
        "flow_ids": planner.flow_ids.live_count,
        "owners": sorted(planner.registry.owners()),
        "streams": sorted(planner.decoy_streams),
    }


EMPTY = {"ports": [], "flow_ids": 0, "owners": [], "streams": []}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_release_gives_back_everything_the_plan_booked(strategy):
    planner = bare_planner(fat_tree(4), get_strategy(strategy))
    rng = random.Random(2)
    plans = [
        planner.plan(FlowIntent("h1", f"h{16 - i}", 80, 3, cookie=i, owner=f"ch1/c{i}"), rng)
        for i in range(3)
    ]
    for plan in plans:
        planner.strategy.compile_flow(plan, 2, rng)
    assert all(_books(planner).values())
    for plan in plans:
        planner.release(plan)
    assert _books(planner) == EMPTY


@pytest.mark.parametrize("run", [
    lambda: experiments.scalability_routing_calculation(flow_counts=(2, 4)),
    lambda: experiments.scalability_vs_fabric(ks=(4,)),
], ids=["routing_calculation", "vs_fabric"])
def test_the_sec6c_planning_benchmarks_give_back_what_they_take(run):
    beds = []
    create = experiments.Testbed.create

    def keep(*args, **kwargs):
        beds.append(create(*args, **kwargs))
        return beds[-1]

    with mock.patch.object(experiments.Testbed, "create", side_effect=keep):
        run()
    assert beds and [_books(bed.mic.planner) for bed in beds] == [EMPTY] * len(beds)


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield ("." * node.level) + (node.module or "")


def test_the_planner_imports_nothing_of_the_simulator_or_the_live_network():
    imported = set(_imports(ast.parse((SRC / "core" / "planner.py").read_text())))
    assert not {m for m in imported if "sim" in m.split(".") or m.endswith("network")}


def test_no_strategy_draw_or_compile_method_reads_the_controller():
    for path in sorted((SRC / "anonymity").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith(
                    ("draw_", "compile_", "finish_plan", "plausible_", "add_decoys",
                     "match_for", "rewrite_")):
                reads = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
                assert "mic" not in reads, f"{path.name}:{fn.name}"


def test_planning_has_one_home_and_the_benches_call_no_private_controller_method():
    assert "_plan_flow" not in (SRC / "core" / "controller.py").read_text()
    tree = ast.parse((SRC / "bench" / "experiments.py").read_text())
    private = {
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr.startswith("_")
        and not n.attr.startswith("__")
    }
    assert private == set()
