"""The parallel water-filling loop: the max-min certificate, and the loop it replaced.

``FluidSolver`` freezes every local bottleneck in the same round (see
``FluidSolver._solve``, which every instance takes, however small).  That is not the arithmetic of the
one-level-per-round loop it replaced, which ``fluid_oracle.full_scan_solve``
keeps, so rates are compared with it to a relative 1e-8 — that loop read a
link as saturated within a relative 1e-9 of its capacity — wherever both
define them (every capacity and cap finite).  What is checked exactly is the
model: every instance here passes :func:`assert_max_min_fair`, the
bottleneck certificate of max-min fairness, and the hand-built instances
keep their hand-computed rates and round counts.
"""

import itertools
import math
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from fluid_oracle import (
    assert_max_min_fair,
    ecmp_instance,
    full_scan_link_load,
    full_scan_solve,
)
from hypothesis import given, settings, strategies as st

from repro.net import FluidFlow, FluidSolver, max_min_fair

INF = float("inf")
GBPS = 1e9
# inf capacities make the old loop compute inf - inf
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def build(caps, flows, external=None):
    """A fresh solver over ``caps`` / ``flows`` (dict or iterable of FluidFlow)."""
    s = FluidSolver(caps)
    for f in flows.values() if isinstance(flows, dict) else flows:
        s.add_flow(f.flow_id, f.links, rate_cap_bps=f.rate_cap_bps)
    for link, load in (external or {}).items():
        s.set_external_load(link, load)
    return s


def same(got: dict, want: dict) -> bool:
    """Exact dict equality that also lets nan equal nan."""
    return got.keys() == want.keys() and all(
        g == w or (g != g and w != w)
        for g, w in ((got[key], want[key]) for key in want)
    )


def assert_near_oracle(solver, caps, flows, external=None):
    """The certificate; rates near the full-scan loop's; loads of those rates.

    The full scan read an infinite link as saturated in its first round, so
    it is compared only on instances whose used capacities and caps are all
    finite.  Link loads are those of the solver's own rates, exactly.
    """
    assert_max_min_fair(solver)
    got = solver.rates()
    assert same(solver.link_fluid_load_bps(), full_scan_link_load(flows, got))
    eff = solver.allocation().link_capacity_bps
    if any(
        f.rate_cap_bps == INF or any(eff[link] == INF for link in f.links)
        for f in flows.values()
    ):
        return
    want, _ = full_scan_solve(flows, caps, external or {})
    assert got.keys() == want.keys()
    for fid, w in want.items():
        assert math.isclose(got[fid], w, rel_tol=1e-8, abs_tol=1e-9), fid


def by_id(flows):
    """``{flow_id: flow}`` of a list of flows."""
    return {f.flow_id: f for f in flows}


# ---------------------------------------------------------------------------
# generated instances
# ---------------------------------------------------------------------------
capacity = st.one_of(
    st.floats(min_value=1.0, max_value=1e10),
    st.sampled_from([0.0, 1.0, GBPS, INF]),
)


@st.composite
def instances(draw):
    links = [f"l{i}" for i in range(draw(st.integers(1, 8)))]
    caps = {l: draw(capacity) for l in links}
    external = {
        l: draw(st.floats(min_value=0.0, max_value=2e10))
        for l in draw(st.lists(st.sampled_from(links), max_size=3, unique=True))
    }
    flows = {}
    for j in range(draw(st.integers(0, 48))):
        # min_size 0: pathless flows; not unique: a link listed twice
        path = draw(st.lists(st.sampled_from(links), min_size=0, max_size=5))
        cap = draw(st.one_of(st.none(), st.none(), capacity))
        flows[f"f{j:02d}"] = FluidFlow(f"f{j:02d}", path, rate_cap_bps=cap)
    return caps, flows, external


@settings(max_examples=150, deadline=None)
@given(instances())
def test_generated_instances_are_max_min_fair(instance):
    caps, flows, external = instance
    solver = build(caps, flows, external)
    assert_near_oracle(solver, caps, flows, external)
    assert solver.rounds <= len(flows)


def test_fat_tree8_hash_ecmp_in_a_few_rounds():
    caps, flows = ecmp_instance(8, 1500, seed=3)
    solver = build(caps, flows)
    assert_near_oracle(solver, caps, flows)
    # the full scan raises the water one level at a time
    assert solver.rounds <= 40 < 200 < full_scan_solve(flows, caps, {})[1]
    # a re-solve on the kept incidence (capacity churn only)
    link = flows["ch-0"].links[1]
    solver.set_external_load(link, 0.25 * GBPS)
    assert_near_oracle(solver, caps, flows, {link: 0.25 * GBPS})


# ---------------------------------------------------------------------------
# churn: a long-lived solver equals a freshly built one after every step
# ---------------------------------------------------------------------------
def test_churn_sequence_equals_fresh_solver_after_every_step():
    rng = random.Random(15)
    caps = {f"l{i}": GBPS * rng.choice((1, 1, 4, 10)) for i in range(12)}
    external: dict[str, float] = {}
    flows: dict[str, FluidFlow] = {}
    solver = FluidSolver(caps)
    seq = 0

    def add_flow():
        nonlocal seq
        # ids recycle, so a removed flow can come back at the end of the order
        fid = f"f{rng.randrange(seq + 1) if seq > 60 else seq}"
        seq += 1
        if fid in flows:
            return
        path = [rng.choice(sorted(caps)) for _ in range(rng.randint(0, 4))]
        cap = rng.choice((None, None, None, 0.3 * GBPS))
        flows[fid] = FluidFlow(fid, path, rate_cap_bps=cap)
        solver.add_flow(fid, path, rate_cap_bps=cap)

    def remove_flow():
        fid = rng.choice(sorted(flows))
        del flows[fid]
        solver.remove_flow(fid)

    def set_external_load():
        link = rng.choice(sorted(caps))
        load = rng.choice((0.0, 0.1 * GBPS, 2.5 * GBPS, 20 * GBPS))
        if load:
            external[link] = load
        else:
            external.pop(link, None)
        solver.set_external_load(link, load)

    def set_capacity():
        link = rng.choice(sorted(caps))
        caps[link] = GBPS * rng.choice((0, 1, 2, 40))
        solver.set_capacity(link, caps[link])

    def add_link():
        link = f"late{len(caps)}"
        caps[link] = 2 * GBPS
        solver.add_link(link, caps[link])

    for _ in range(40):
        add_flow()
    steps = [add_flow] * 4 + [remove_flow] * 3 + [
        set_external_load, set_external_load, set_capacity, add_link,
    ]
    for _ in range(120):
        if len(flows) < 34:
            add_flow()
        else:
            rng.choice(steps)()
        fresh = build(caps, flows, external)
        assert_near_oracle(fresh, caps, flows, external)
        assert len(solver) == len(flows)
        assert same(solver.rates(), fresh.rates())
        assert same(solver.link_fluid_load_bps(), fresh.link_fluid_load_bps())
        assert solver.allocation().link_capacity_bps == {
            l: max(c - external.get(l, 0.0), 0.0) for l, c in caps.items()
        }
    assert len(caps) > 12, "the sequence never added a late link"


def assert_incidence_is_a_fresh_build(solver, caps, flows, external):
    """The kept (masked) incidence equals the one a new solver builds."""
    kept = solver._incidence_arrays()
    fresh = build(caps, flows, external)._incidence_arrays()
    assert kept.n_phys == fresh.n_phys and kept.flow_ids == fresh.flow_ids
    for field in kept._fields[2:]:
        got, want = getattr(kept, field), getattr(fresh, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field


def test_remove_heavy_churn_masks_the_incidence_round_for_round():
    # removals far outnumber adds, so most solves run on a masked incidence,
    # which must equal a fresh build (and so solve to the same rates, bit for
    # bit) after every round of churn; zero and inf capacities, inf rate caps
    # and links listed twice all occur along the way
    rng = random.Random(25)
    caps = {f"l{i}": rng.choice((0.0, GBPS, GBPS, 4 * GBPS, INF)) for i in range(10)}
    external: dict[str, float] = {}
    flows: dict[str, FluidFlow] = {}
    solver = FluidSolver(caps)
    seq = 0

    def add_flow():
        nonlocal seq
        fid = f"f{seq:03d}"
        seq += 1
        path = [rng.choice(sorted(caps)) for _ in range(rng.randint(0, 4))]
        cap = rng.choice((None, None, None, 0.3 * GBPS, INF))
        flows[fid] = FluidFlow(fid, path, rate_cap_bps=cap)
        solver.add_flow(fid, path, rate_cap_bps=cap)

    for _ in range(160):
        add_flow()
    masked = 0
    while flows:
        # down to the last flow: small instances take the same loop
        gone = rng.sample(sorted(flows), min(rng.randint(1, 5), len(flows)))
        for fid in gone:
            del flows[fid]
        if len(gone) == 1:
            solver.remove_flow(gone[0])
        else:
            solver.remove_flows(gone)
        if rng.random() < 0.1:
            add_flow()
        if rng.random() < 0.3:
            link = rng.choice(sorted(caps))
            external[link] = rng.choice((0.0, 0.2 * GBPS, 5 * GBPS))
            solver.set_external_load(link, external[link])
        masked += solver._incidence is not None
        assert_near_oracle(solver, caps, flows, external)
        assert_incidence_is_a_fresh_build(solver, caps, flows, external)
        assert same(solver.rates(), build(caps, flows, external).rates())
    assert masked > 20


def test_removals_among_inf_links_stay_exact():
    # only inf links in use: "a" and "b" flows are unconstrained (inf); an
    # infinite external load leaves "c" no capacity (inf - inf is not nan)
    caps = {"a": INF, "b": INF, "c": INF}
    external = {"c": INF}
    flows = {
        fid: FluidFlow(
            fid,
            ["a" if fid < "f2" else "c" if fid < "f3" else "b"] * (1 + i % 3),
        )
        for i, fid in enumerate(f"f{j}" for j in range(2, 48))
    }
    solver = build(caps, flows, external)
    for fid in ("f10", "f2", "f33", "f4", "f40", "f41", "f47", "f5"):
        del flows[fid]
        solver.remove_flow(fid)
        assert_incidence_is_a_fresh_build(solver, caps, flows, external)
        assert same(solver.rates(), build(caps, flows, external).rates())
        assert_max_min_fair(solver)
    rates = solver.rates()
    for fid, flow in flows.items():
        assert rates[fid] == (0.0 if flow.links[0] == "c" else INF), fid
    assert solver.allocation().link_capacity_bps == {"a": INF, "b": INF, "c": 0.0}
    assert solver.link_fluid_load_bps() == {"c": 0.0}


def test_rounds_sweep_little_more_than_the_live_links():
    # a round sweeps the entries still active, not the incidence: on
    # fat_tree(16) hash-ECMP traffic the ~23,500 entries freeze within
    # 20 rounds, about a third of them per round on average
    caps, flows = ecmp_instance(16, 4000, seed=4000)
    solver = build(caps, flows)
    assert_near_oracle(solver, caps, flows)
    entries = sum(len(f.links) for f in flows.values())
    assert 0 < solver.rounds <= 20
    assert entries <= solver.entries_swept <= 0.5 * solver.rounds * entries


# ---------------------------------------------------------------------------
# hand-built instances: rates and round counts computed by hand
# ---------------------------------------------------------------------------
def test_link_listed_twice_counts_twice():
    caps = {"l": 90.0}
    flows = by_id([FluidFlow("twice", ["l", "l"]), FluidFlow("once", ["l"])])
    solver = build(caps, flows)
    assert_near_oracle(solver, caps, flows)
    # three entries on "l": both flows freeze at 30 in the first round, and
    # "twice" loads it twice
    assert solver.rate("twice") == solver.rate("once") == 30.0
    assert solver.link_fluid_load_bps()["l"] == 90.0
    assert solver.rounds == 1


def test_duplicate_links_are_all_released_when_the_flow_freezes():
    # "dup" freezes on "thin" in the first round; unless both of its entries
    # on "fat" are charged at 10, "rest" misses the 100 it should reach
    caps = {"thin": 10.0, "fat": 100.0 + 10.0 + 10.0}
    flows = by_id(
        [FluidFlow("dup", ["fat", "thin", "fat"]), FluidFlow("rest", ["fat"])]
    )
    solver = build(caps, flows)
    assert_near_oracle(solver, caps, flows)
    assert solver.rate("dup") == 10.0
    assert solver.rate("rest") == 100.0
    assert solver.rounds == 2


def test_flow_on_two_links_saturating_together_is_frozen_once():
    caps = {"a": 20.0, "b": 20.0, "c": 100.0}
    flows = by_id([
        FluidFlow("both", ["a", "b", "c"]),
        FluidFlow("a2", ["a"]),
        FluidFlow("b2", ["b"]),
        FluidFlow("c2", ["c"]),
    ])
    solver = build(caps, flows)
    assert_near_oracle(solver, caps, flows)
    assert solver.rate("both") == 10.0
    # had "both" been charged to "c" twice, c2 would stop short of 90
    assert solver.rate("c2") == 90.0
    assert solver.rounds == 2


@pytest.mark.parametrize("cap_on", ["link", "flow"])
def test_inf_capacity_never_freezes_a_finite_flow(cap_on):
    # "x" crosses an inf link (or has an inf rate cap) and shares "l" with
    # "y": an inf level never binds, so both get half of "l" in the round
    # the 40 bystanders on "pad" freeze in.  The full scan read the inf link
    # as saturated in its first round and froze "x" at the bystanders' level.
    caps = {"wide": INF if cap_on == "link" else 1e12, "l": 50.0, "pad": 1.0}
    flows = by_id(
        [
            FluidFlow("x", ["wide", "l"], rate_cap_bps=INF if cap_on == "flow" else None),
            FluidFlow("y", ["l"]),
        ]
        + [FluidFlow(f"pad{i}", ["pad"]) for i in range(40)]
    )
    solver = build(caps, flows)
    assert_max_min_fair(solver)
    assert solver.rate("x") == solver.rate("y") == 25.0
    assert solver.rate("pad0") == 1.0 / 40
    assert solver.rounds == 1
    assert full_scan_solve(flows, caps, {})[0]["x"] == 1.0 / 40


def test_zero_capacity_link_gives_share_zero_and_still_freezes():
    caps = {"dead": 100.0, "l": 60.0}
    flows = by_id([FluidFlow("starved", ["dead", "l"]), FluidFlow("ok", ["l"])])
    external = {"dead": 250.0}  # external load >= capacity
    solver = build(caps, flows, external)
    assert_near_oracle(solver, caps, flows, external)
    assert solver.rate("starved") == 0.0
    assert solver.rate("ok") == 60.0
    assert solver.link_fluid_load_bps()["dead"] == 0.0
    assert solver.rounds == 2


@pytest.mark.parametrize("n", [3, 34])
def test_flows_on_inf_links_only_get_inf(n):
    # a flow whose links all have infinite capacity is unconstrained, like a
    # pathless one — in a small instance and a larger one alike, and as in
    # the reference; no finite input yields nan.  "mixed" takes what "l" offers.
    caps = {"a": INF, "b": INF, "l": 5.0}
    flows = {
        fid: FluidFlow(fid, [("a", "b")[i % 2]] * (1 + i % 3))
        for i, fid in enumerate(f"f{j}" for j in range(2, 2 + n))
    }
    flows["mixed"] = FluidFlow("mixed", ["a", "l", "b"])
    solver = build(caps, flows)
    assert_max_min_fair(solver)
    rates = dict(solver.rates())
    assert rates.pop("mixed") == 5.0
    assert set(rates.values()) == {INF}
    assert solver.link_fluid_load_bps() == {"a": 5.0, "l": 5.0, "b": 5.0}
    assert max_min_fair(flows.values(), caps).rates_bps == solver.rates()


def test_add_link_after_first_solve_grows_the_link_table():
    caps, flows = ecmp_instance(4, 64, seed=1)
    solver = build(caps, flows)
    solver.rates()
    for i in range(40):  # well past any initial allocation
        caps[f"late{i}"] = (i + 1) * 1e6
        solver.add_link(f"late{i}", caps[f"late{i}"])
    assert solver.dirty
    for i in range(40):
        fid = f"late-flow{i}"
        flows[fid] = FluidFlow(fid, [f"late{i}", f"late{(i * 7) % 40}"])
        solver.add_flow(fid, flows[fid].links)
    assert_near_oracle(solver, caps, flows)
    assert solver.flow_links("late-flow3") == ["late3", "late21"]
    solver.set_external_load("late39", 1e6)
    assert solver.external_load_bps("late39") == 1e6
    assert_near_oracle(solver, caps, flows, {"late39": 1e6})


def test_rounds_accumulate_over_solves():
    caps, flows = ecmp_instance(4, 64, seed=2)
    solver = build(caps, flows)
    solver.rates()
    first = solver.rounds
    assert 0 < first <= len(flows)
    solver.rates()
    assert solver.rounds == first  # clean read
    solver.set_capacity(next(iter(caps)), 5e8)
    solver.rates()
    assert solver.rounds > first
    # one flow is one round of the same loop
    small = build({"l": 1.0}, [FluidFlow("a", ["l"])])
    small.rates()
    assert (small.resolves, small.rounds, small.entries_swept) == (1, 1, 1)


def test_a_solve_allocates_per_solve_not_per_round():
    """A round's temporaries are freed by the next round.

    The traced peak of a warm re-solve stays within six 8-byte words per
    flow×link entry and six per link (~4.6 per entry and 5 per link
    measured here), plus the returned dict, whatever the number of rounds.
    """
    caps, flows = ecmp_instance(8, 1500, seed=3)
    solver = build(caps, flows)
    solver.rates()
    solver.set_external_load(next(iter(caps)), 1.0)
    rounds = solver.rounds
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rates = solver.rates()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solver.rounds - rounds > 10
    entries = len(solver._incidence_arrays().link_of)
    per_solve = 8 * 6 * (entries + len(caps))
    result = sys.getsizeof(rates) + 2 * 32 * len(rates)  # dict + list + floats
    assert kept - base < result
    assert peak - base < per_solve + result


def test_solving_does_not_import_numpy_ma():
    """``np.unique`` would: its first call imports numpy.ma, ~1 MB resident."""
    code = (
        "import sys\n"
        "from repro.net import FluidSolver\n"
        "s = FluidSolver({'a': 10.0, 'b': 10.0})\n"
        "for i in range(40):\n"
        "    s.add_flow(f'f{i}', ['a', 'b', 'a'][: 1 + i % 3])\n"
        "s.rates(); s.link_fluid_load_bps()\n"
        "assert s.rounds > 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# ---------------------------------------------------------------------------
# the nominal solve: the same flows over raw capacities
# ---------------------------------------------------------------------------
STEPS = ("add", "remove", "external", "capacity", "late link")


# the ids name the two flow-count ranges that once chose a scalar or an
# array loop; both ranges now take the one loop, and both stay drawn
@pytest.mark.parametrize("start", [(0, 31), (32, 44)], ids=["scalar", "vector"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nominal_solve_equals_a_fresh_solver_without_external_loads(start, data):
    draw = data.draw
    caps = {f"l{i}": draw(capacity) for i in range(draw(st.integers(1, 6)))}
    flows: dict[str, FluidFlow] = {}
    solver = FluidSolver(caps)
    serial = itertools.count()

    def add_flow():
        fid = f"f{next(serial):03d}"
        path = draw(st.lists(st.sampled_from(list(caps)), max_size=4))
        flows[fid] = FluidFlow(fid, path, draw(st.one_of(st.none(), st.none(), capacity)))
        solver.add_flow(fid, path, rate_cap_bps=flows[fid].rate_cap_bps)

    def checked_nominal():
        counters = (solver.resolves, solver.rounds, solver.entries_swept, solver.dirty)
        nominal = solver.nominal_rates()
        # nominal solves leave rates()'s counters and cache alone
        assert (solver.resolves, solver.rounds, solver.entries_swept, solver.dirty) == counters
        assert same(nominal, build(caps, flows).rates())
        return nominal

    for _ in range(draw(st.integers(*start))):
        add_flow()
    nominal = checked_nominal()
    for step in draw(st.lists(st.sampled_from(STEPS), max_size=8)):
        if step == "external":
            link = draw(st.sampled_from(list(caps)))
            solver.set_external_load(link, draw(st.floats(0.0, 2e10) | st.just(INF)))
            solver.rates()
            assert solver.nominal_rates() is nominal  # still clean
            continue
        if step == "add":
            for _ in range(draw(st.integers(1, 12))):
                add_flow()
        elif step == "remove" and flows:
            gone = draw(st.lists(st.sampled_from(list(flows)), min_size=1, unique=True))
            solver.remove_flows(gone)
            for fid in gone:
                del flows[fid]
        elif step == "capacity":
            link = draw(st.sampled_from(list(caps)))
            caps[link] = draw(capacity)
            solver.set_capacity(link, caps[link])
        elif step == "late link":
            link = f"l{len(caps)}"
            caps[link] = draw(capacity)
            solver.add_link(link, caps[link])
            add_flow()
        # a rates() solve between steps shares (and masks) the incidence
        solver.rates()
        nominal = checked_nominal()
