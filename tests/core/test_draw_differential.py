"""The counted draw against the list-building draw it replaced.

``Strategy.plausible_pool`` narrows a segment's geodesic mask to a
:class:`~repro.core.restrictions.SegmentPool` — the smallest view that
holds the survivors, and their count — and
``AddressRestrictions.draw_pair`` draws a position from the count and
locates only that pair; the oracle (``plausibility_oracle.oracle_narrow``
over the brute-force ``oracle_segment`` pool, then ``rng.choice``) is what
``draw_segment`` did with name-tuple lists.  Same surviving pool element
for element, same pick, same RNG state afterwards — so every seeded
simulation is unchanged — on a healthy fabric, a degraded one, one whose
link fails after the first draw, and on the walks the controller cuts.
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
    _assert_same_draws(mic, segment, pin_src, pin_dst, endpoints, expected, seed)
    ours, theirs = random.Random(seed), random.Random(seed)
    assert mic.restrictions.sample_pair(segment, ours) == theirs.choice(pool)
    assert ours.getstate() == theirs.getstate()


def _assert_same_draws(mic, segment, pin_src, pin_dst, endpoints, expected, seed):
    """The counted pool lists as ``expected`` and draws as ``choice`` over
    it does, three times (the collision loop draws once per retry)."""
    pool = mic.strategy.plausible_pool(segment, pin_src, pin_dst, endpoints)
    index = mic.restrictions.pool_index(pool)
    assert index.dtype == np.int32
    assert pool.size == len(expected)
    assert mic.restrictions.view.pairs_from_index(index) == expected
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert mic.restrictions.draw_pair(pool, ours) == theirs.choice(expected)
    assert ours.getstate() == theirs.getstate()
    return pool


@functools.lru_cache(maxsize=None)
def fat_tree_deployment(k):
    return deploy_mic(fat_tree(k), seed=0)


@settings(max_examples=300, deadline=None)
@given(
    k=st.sampled_from([4, 6]),
    n_mns=st.integers(1, 7),  # past the shortest path's switches: bounce walks
    pins=st.sampled_from(["none", "src", "dst", "both"]),
    pinned=st.sampled_from(["walk-ends", "any-host"]),
    ban=st.sampled_from(["none", "walk-ends", "pool-sources"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_counted_draw_equals_the_list_draw_on_controller_walks(
    k, n_mns, pins, pinned, ban, seed
):
    """Every segment of a walk cut the way ``_plan_flow`` cuts it, both
    directions, plus a there-and-back segment (the first link's fallback)
    and a one-node one (the all-pairs fallback), under each pin
    combination; ``pool-sources`` bans the narrowed pool's own sources, so
    a pool with one or two of them relaxes the ban."""
    dep = fat_tree_deployment(k)
    mic, view, topo = dep.mic, dep.ctrl.view, dep.net.topo
    rng = random.Random(seed)
    a, b = rng.sample(topo.hosts(), 2)
    walk = view.paths_with_min_switches(a, b, n_mns, rng)
    switches = [i for i in range(1, len(walk) - 1) if topo.kind(walk[i]) == "switch"]
    mns = sorted(rng.sample(switches, n_mns))
    cases = []
    for nodes, cuts, src, dst in (
        (walk, mns, a, b),
        (walk[::-1], sorted(len(walk) - 1 - p for p in mns), b, a),
    ):
        bounds = [0] + cuts + [len(nodes) - 1]
        cases += [
            (nodes[bounds[i] : bounds[i + 1] + 1], src, dst)
            for i in range(len(bounds) - 1)
        ]
    u = walk[mns[0]]
    cases += [([u, walk[mns[0] + 1], u], a, b), ([u], a, b)]
    fallbacks = []
    for segment, src, dst in cases:
        pool = oracle_segment(view, segment)
        hosts = (src, dst) if pinned == "walk-ends" else rng.sample(topo.hosts(), 2)
        pin_src = topo.host_ip(hosts[0]) if pins in ("src", "both") else None
        pin_dst = topo.host_ip(hosts[1]) if pins in ("dst", "both") else None
        endpoints = ()
        if ban == "walk-ends":
            endpoints = (src, dst)
        elif ban == "pool-sources":
            narrowed = oracle_narrow(pool, mic._ip_to_host, pin_src, pin_dst)
            endpoints = tuple(dict.fromkeys(p[0] for p in narrowed))[:2]
        expected = oracle_narrow(pool, mic._ip_to_host, pin_src, pin_dst, endpoints)
        drawn = _assert_same_draws(
            mic, segment, pin_src, pin_dst, endpoints, expected, seed
        )
        fallbacks.append(drawn.fallback)
    # a geodesic walk's segments never fall back; the last two always do
    assert fallbacks[-2:] == [True, True]
    assert not any(fallbacks[:-2]) or len(walk) > len(view.shortest_path(a, b))


def test_both_ips_pinned_still_consumes_the_pool_draw():
    """Delivery / repair pins fix both addresses, yet ``choice(pool)`` ran
    before the pins were applied — the stream position is behaviour."""
    dep = deployment("fat_tree4", False)
    mic, topo = dep.mic, dep.net.topo
    segment = dep.ctrl.view.shortest_path("h1", "h16")[:3]
    pool = mic.strategy.plausible_pool(
        segment, topo.host_ip("h1"), topo.host_ip("h16"), ("h1", "h16")
    )
    assert pool.size == 1  # the pinned pair itself: one cell, never the mask
    ours, theirs = random.Random(3), random.Random(3)
    assert mic.restrictions.draw_pair(pool, ours) == ("h1", "h16")
    theirs.choice(range(1))
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
        lambda: restrictions.draw_pair(restrictions.segment_mask(["h1", "s1"]), random.Random(0)),
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
