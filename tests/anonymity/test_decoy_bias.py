"""Decoy neighbor placement: seeded per-owner stream, no global-state bias.

The pre-fix code drew decoy neighbors from the controller's main RNG, so
a flow's decoy placement depended on how many draws *earlier* flows had
consumed — establish order silently biased placement.  Now the choice
comes from the planner's ``mic-decoys/<owner>`` stream: it depends only on
(seed, owner), varies across owners and seeds, and is reproducible.
"""

from dataclasses import replace

from repro.core.deployment import deploy_mic
from repro.net.topology import fat_tree

from tests.anonymity.helpers import establish_canonical


def _decoy_choice(dep, owner: str, decoys: int = 1, channel_id: int = 1):
    """The decoy branch switches add_decoys picks for ``owner``."""
    plan = replace(dep.mic.channels[channel_id].flows[0], owner=owner)
    strat, rng = dep.mic.strategy, dep.mic.rng
    rules, _groups, _drops = strat.compile_flow(plan, 0, rng)
    _rules, _groups, drops = strat.add_decoys(plan, rules, decoys, rng)
    return tuple(sw for sw, _e in drops)


def _establish_fat8(seed=0):
    """One cross-pod channel on fat_tree(8): the first MN (an edge switch
    with four agg uplinks) has a three-way decoy neighbor pool, wide
    enough for owner-to-owner variation to show."""
    dep = deploy_mic(fat_tree(8), seed=seed, mic_kwargs={"mn_bits": 20})
    grants = []

    def go():
        grant = yield from dep.mic.establish(
            "h1", "h128", service_port=7001, n_mns=3, decoys=2)
        grants.append(grant)

    dep.sim.process(go(), name="establish")
    dep.run_for(5.0)
    assert grants
    return dep


def test_same_seed_same_owner_reproduces_the_choice():
    dep1, _ = establish_canonical()
    dep2, _ = establish_canonical()
    assert _decoy_choice(dep1, "probe/x") == _decoy_choice(dep2, "probe/x")


def test_choice_varies_across_owners():
    dep = _establish_fat8()
    choices = {owner: _decoy_choice(dep, f"probe/{owner}", decoys=2)
               for owner in "abcdefgh"}
    assert len(set(choices.values())) > 1, (
        f"every owner drew the same decoy placement: {choices}"
    )


def test_choice_varies_across_seeds():
    dep0, _ = establish_canonical(seed=0)
    dep1, _ = establish_canonical(seed=1)
    # The named stream itself must be seed-dependent (same draw count).
    a = [dep0.sim.rng("mic-decoys/probe/t").random() for _ in range(4)]
    b = [dep1.sim.rng("mic-decoys/probe/t").random() for _ in range(4)]
    assert a != b


def test_placement_independent_of_establish_order():
    """The choice for one owner is identical whether or not other flows
    consumed the main controller stream first — the bias being fixed."""
    dep, _ = establish_canonical()
    # Burn a lot of main-stream entropy, as more establishes would.
    for _ in range(1000):
        dep.mic.rng.random()
    dep2, _ = establish_canonical()
    assert _decoy_choice(dep, "probe/x") == _decoy_choice(dep2, "probe/x")
