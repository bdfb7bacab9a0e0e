"""A path a query hands out belongs to the caller.

``equal_cost_paths`` returns the cached set itself (its callers only read
it); the three single-path queries used to return members of that set, so
every ``MFlowPlan.walk`` and L3 route of a host pair was one list object and
an in-place edit of any of them would have rewritten every later answer.
"""

import random

from repro.core import deploy_mic
from repro.net import fat_tree
from repro.sdn import TopologyView


def test_editing_a_returned_path_does_not_change_the_next_answer():
    view = TopologyView(fat_tree(4))
    cached = [list(p) for p in view.equal_cost_paths("h1", "h16")]
    queries = {
        "shortest_path": lambda rng: view.shortest_path("h1", "h16"),
        "pick_path": lambda rng: view.pick_path("h1", "h16", rng),
        "paths_with_min_switches": lambda rng: view.paths_with_min_switches(
            "h1", "h16", 3, rng
        ),
    }
    for name, ask in queries.items():
        first = ask(random.Random(5))
        answer = list(first)
        first.reverse()
        first.append("scribble")
        assert ask(random.Random(5)) == answer, name
        assert view.equal_cost_paths("h1", "h16") == cached, name


def test_editing_a_live_plans_walk_does_not_change_the_next_plan():
    dep = deploy_mic(fat_tree(4), seed=3)

    def establish():
        proc = dep.sim.process(
            dep.mic.establish("h1", "h16", service_port=80, n_mns=3)
        )
        dep.net.run(until=proc)
        return dep.mic.channels[proc.value.channel_id].flows[0]

    view = dep.ctrl.view
    cached = [list(p) for p in view.equal_cost_paths("h1", "h16")]
    first = establish()
    assert first.walk in cached
    first.walk[1:-1] = ["scribble"]
    assert view.equal_cost_paths("h1", "h16") == cached
    assert view.shortest_path("h1", "h16") == cached[0]
    assert establish().walk in cached
