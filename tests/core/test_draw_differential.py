"""The index-array draw against the list-building draw it replaced.

``Strategy.plausible_pool`` narrows a segment's flat pair-index array with
vector compares and ``AddressRestrictions.draw_pair`` draws by position;
the oracle (``plausibility_oracle.oracle_narrow`` over the brute-force
``oracle_segment`` pool, then ``rng.choice``) is what ``draw_segment`` did
with name-tuple lists.  Same surviving pool element for element, same
pick, same RNG state afterwards — so every seeded simulation is unchanged
— on a healthy fabric, a degraded one, and one whose link fails after the
first draw.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from plausibility_oracle import oracle_narrow, oracle_segment

from repro.core import deploy_mic
from repro.core.restrictions import AddressRestrictions
from repro.net import Topology, bcube, fat_tree, ip, linear
from repro.net.graph import NoPathError
from repro.sdn import TopologyView

FABRICS = {
    "fat_tree4": lambda: fat_tree(4),
    "fat_tree8": lambda: fat_tree(8),
    "bcube": lambda: bcube(4, 1),
    "linear": lambda: linear(3, hosts_per_switch=2),
}
GHOST_IP = ip("10.99.99.99")  # an address no host owns


@functools.lru_cache(maxsize=None)
def deployment(fabric, degraded):
    """One MC per (fabric, state); the link goes down before the first
    draw."""
    dep = deploy_mic(FABRICS[fabric](), seed=0, mic_kwargs={"mn_shift": 1})
    if degraded:
        topo = dep.net.topo
        links = list(topo.graph.edges)
        u, v = next(  # a fabric link; BCube only has server links
            (l for l in links if topo.kind(l[0]) == topo.kind(l[1]) == "switch"),
            links[0],
        )
        dep.ctrl.view.set_link_state(u, v, up=False)
    return dep


def _fail_off(view, segment, rng):
    """Take down a link the segment does not use, so it stays a walk on
    the view (a fabric link when there is one; BCube only has server
    links)."""
    topo, used = view.topo, set(zip(segment, segment[1:]))
    links = [
        (u, v) for u, v in sorted(view.graph.edges)
        if (u, v) not in used and (v, u) not in used
    ]
    fabric = [l for l in links if topo.kind(l[0]) == topo.kind(l[1]) == "switch"]
    link = rng.choice(fabric or links)
    view.set_link_state(*link, up=False)
    return link


def _segment(view, rng, kind):
    """A node segment of the asked kind, or None if the view has none."""
    hosts = list(view.hosts)
    switches = sorted(view.topo.switches())
    if kind == "bounce":  # there and back: the intersection is empty
        u = rng.choice(switches)
        return [u, rng.choice(sorted(view.graph.neighbors(u))), u]
    if kind == "no-link":
        return [rng.choice(switches)]
    for _ in range(20):
        a, b = rng.sample(hosts, 2)
        try:
            path = view.pick_path(a, b, rng)
        except NoPathError:
            continue  # the degraded linear fabric is partitioned
        i = rng.randrange(len(path) - 1)
        segment = path[i : rng.randrange(i + 1, len(path)) + 1]
        if kind == "unknown-head":  # empty first link: the universe
            return ["nope"] + segment
        if kind == "unknown-tail":  # empty later link: the first link's set
            return segment + ["nope"]
        return segment
    return None


def _pin(mic, rng, how, side, pool):
    if how == "none":
        return None
    if how == "ghost":
        return GHOST_IP
    host = (
        rng.choice(pool)[side] if how == "in-pool" and pool
        else rng.choice(mic.net.topo.hosts())
    )
    return mic.net.topo.host_ip(host)


PINS = st.sampled_from(["none", "in-pool", "any-host", "ghost"])


@settings(max_examples=250, deadline=None)
@given(
    fabric=st.sampled_from(sorted(FABRICS)),
    state=st.sampled_from(["healthy", "degraded", "fails-after-first-draw"]),
    kind=st.sampled_from(
        ["shortest", "bounce", "no-link", "unknown-head", "unknown-tail"]
    ),
    src_pin=PINS,
    dst_pin=PINS,
    ban=st.sampled_from(["none", "from-pool", "any-pair"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_index_draw_equals_the_list_draw(
    fabric, state, kind, src_pin, dst_pin, ban, seed
):
    dep = deployment(fabric, state == "degraded")
    mic, view = dep.mic, dep.ctrl.view
    rng = random.Random(seed)
    segment = _segment(view, rng, kind)
    if segment is None:
        return
    if state != "fails-after-first-draw":
        _check_draw(mic, view, segment, src_pin, dst_pin, ban, seed, rng)
        return
    # one draw on the healthy view, then a link event the next draws must
    # see; the shared healthy deployment gets its link back afterwards
    mic.strategy.plausible_pool(segment, None, None)
    link = _fail_off(view, segment, rng)
    try:
        _check_draw(mic, view, segment, src_pin, dst_pin, ban, seed, rng)
    finally:
        view.set_link_state(*link, up=True)


def _check_draw(mic, view, segment, src_pin, dst_pin, ban, seed, rng):
    pool = oracle_segment(view, segment)
    assert mic.restrictions.pairs_for_segment(segment) == pool
    pin_src = _pin(mic, rng, src_pin, 0, pool)
    pin_dst = _pin(mic, rng, dst_pin, 1, pool)
    endpoints = ()
    if ban == "from-pool":  # the ban bites, and on a tiny pool must relax
        endpoints = (rng.choice(pool)[0], rng.choice(pool)[1])
    elif ban == "any-pair":
        endpoints = tuple(rng.sample(list(view.hosts), 2))

    expected = oracle_narrow(pool, mic._ip_to_host, pin_src, pin_dst, endpoints)
    index = mic.strategy.plausible_pool(segment, pin_src, pin_dst, endpoints)
    assert index.dtype == np.int32
    assert view.pairs_from_index(index) == expected

    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):  # the collision loop draws once per retry
        assert mic.restrictions.draw_pair(index, ours) == theirs.choice(expected)
    assert mic.restrictions.sample_pair(segment, ours) == theirs.choice(pool)
    assert ours.getstate() == theirs.getstate()


def test_both_ips_pinned_still_consumes_the_pool_draw():
    """Delivery / repair pins fix both addresses, yet ``choice(pool)`` ran
    before the pins were applied — the stream position is behaviour."""
    dep = deployment("fat_tree4", False)
    mic, topo = dep.mic, dep.net.topo
    segment = dep.ctrl.view.shortest_path("h1", "h16")[:3]
    index = mic.strategy.plausible_pool(
        segment, topo.host_ip("h1"), topo.host_ip("h16"), ("h1", "h16")
    )
    ours, theirs = random.Random(3), random.Random(3)
    mic.restrictions.draw_pair(index, ours)
    theirs.choice(range(len(index)))
    assert ours.getstate() == theirs.getstate() != random.Random(3).getstate()


def test_an_empty_pool_refuses_like_choice_of_an_empty_list():
    """``IndexError`` is in ``_serve_request``'s refusal list and its text
    becomes the reply's ``error``: same type, same message."""
    topo = Topology("lonely")
    topo.add_link(topo.add_host("h1"), topo.add_switch("s1"))
    view = TopologyView(topo)
    restrictions = AddressRestrictions(view)
    assert restrictions.segment_index(["h1", "s1"]).size == 0  # no pair at all
    with pytest.raises(IndexError) as parent:
        random.Random(0).choice([])
    for draw in (
        lambda: restrictions.draw_pair(np.empty(0, dtype=np.int32), random.Random(0)),
        lambda: restrictions.sample_pair(["h1", "s1"], random.Random(0)),
    ):
        with pytest.raises(IndexError) as ours:
            draw()
        assert str(ours.value) == str(parent.value)


def test_one_establish_names_only_the_pairs_it_draws(monkeypatch):
    """Planning reads index arrays end to end: the only name tuples built
    on the establish path are the pairs actually drawn (the list-building
    draw materialised ~4,600 per establish on this fabric)."""
    dep = deploy_mic(fat_tree(8), seed=0, mic_kwargs={"mn_shift": 1})
    named, drawn = [0], [0]

    def counting(cls, name, counter, size):
        real = getattr(cls, name)

        def spy(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            counter[0] += size(result)
            return result

        monkeypatch.setattr(cls, name, spy)

    counting(TopologyView, "pairs_from_index", named, len)
    counting(TopologyView, "pair_names", named, lambda _pair: 1)
    counting(AddressRestrictions, "draw_pair", drawn, lambda _pair: 1)
    proc = dep.sim.process(
        dep.mic.establish("h1", "h128", service_port=80, n_mns=3, decoys=1)
    )
    dep.net.run(until=proc)
    assert proc.value.flows
    assert drawn[0] >= 9  # 4 + 4 segments and one decoy, plus any retries
    assert named[0] <= drawn[0]
