"""The incremental water-filling loop against the full-scan loop it replaced.

``FluidSolver`` keeps per-link user counts and one scalar water level
instead of re-gathering the flow×link incidence every round.  The float
operations are the same ones in the same order, so everything here compares
with ``==`` — rates, link loads and the number of filling rounds — against
``fluid_oracle.full_scan_solve``, the old loop kept verbatim.
"""

import math
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from fluid_oracle import ecmp_instance, full_scan_link_load, full_scan_solve
from hypothesis import given, settings, strategies as st

from repro.net import FluidFlow, FluidSolver

INF = float("inf")
GBPS = 1e9
# inf capacities make the old loop compute inf - inf too
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


def assert_matches_oracle(solver, caps, flows, external=None):
    """Rates, link loads and round count equal the full-scan loop's exactly."""
    rounds_before = solver.rounds
    want, want_rounds = full_scan_solve(flows, caps, external or {})
    got = solver.rates()
    assert same(got, want)
    assert solver.rounds - rounds_before == want_rounds
    assert same(solver.link_fluid_load_bps(), full_scan_link_load(flows, want))


def padded(flows, caps, n=FluidSolver._VECTOR_MIN_FLOWS):
    """``flows`` plus bystanders on a private link, enough for the array loop."""
    caps["pad"] = 1.0
    flows = {f.flow_id: f for f in flows}
    for i in range(n):
        flows[f"pad{i}"] = FluidFlow(f"pad{i}", ["pad"])
    return flows


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
    for j in range(draw(st.integers(32, 48))):
        # min_size 0: pathless flows; not unique: a link listed twice
        path = draw(st.lists(st.sampled_from(links), min_size=0, max_size=5))
        cap = draw(st.one_of(st.none(), st.none(), capacity))
        flows[f"f{j:02d}"] = FluidFlow(f"f{j:02d}", path, rate_cap_bps=cap)
    return caps, flows, external


@settings(max_examples=150, deadline=None)
@given(instances())
def test_generated_instances_equal_the_full_scan_exactly(instance):
    caps, flows, external = instance
    assert_matches_oracle(build(caps, flows, external), caps, flows, external)


def test_fat_tree8_hash_ecmp_round_for_round():
    caps, flows = ecmp_instance(8, 1500, seed=3)
    solver = build(caps, flows)
    assert_matches_oracle(solver, caps, flows)
    assert solver.rounds > 100  # a real multi-round fill, not one sweep
    # a re-solve on the kept incidence (capacity churn only) stays exact
    link = flows["ch-0"].links[1]
    solver.set_external_load(link, 0.25 * GBPS)
    assert_matches_oracle(solver, caps, flows, {link: 0.25 * GBPS})


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
        assert_matches_oracle(fresh, caps, flows, external)
        assert len(solver) == len(flows) >= FluidSolver._VECTOR_MIN_FLOWS
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
    # removals far outnumber adds, so most solves run on a masked incidence;
    # zero and inf capacities, inf rate caps, links listed twice and the
    # no-saturated-link fallback all occur along the way
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
    while len(flows) > FluidSolver._VECTOR_MIN_FLOWS:
        # stay on the array loop: the reference below 32 flows is another one
        spare = len(flows) - FluidSolver._VECTOR_MIN_FLOWS
        gone = rng.sample(sorted(flows), min(rng.randint(1, 5), spare))
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
        assert_matches_oracle(solver, caps, flows, external)
        assert_incidence_is_a_fresh_build(solver, caps, flows, external)
    assert masked > 20


def test_removals_between_fallback_fills_stay_exact():
    # only inf links in use: every round takes the fallback (share inf, then
    # nan); the masked incidence must freeze the same flows in the same order.
    # "a" carries the flows frozen first, so it parks and is compacted out
    # while "b" and "c" hold nan (c's effective capacity inf - inf is nan
    # from the start, its saturation floor too)
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
    assert_matches_oracle(solver, caps, flows, external)
    for fid in ("f10", "f2", "f33", "f4", "f40", "f41", "f47", "f5"):
        del flows[fid]
        solver.remove_flow(fid)
        assert_matches_oracle(solver, caps, flows, external)
        assert_incidence_is_a_fresh_build(solver, caps, flows, external)
    # c's nan is the minimum share from the first round on
    assert all(math.isnan(rate) for rate in solver.rates().values())


def test_rounds_sweep_little_more_than_the_live_links():
    # parked links leave the swept arrays: on fat_tree(16) hash-ECMP traffic
    # about half of the 6,144 rows are live in an average round
    caps, flows = ecmp_instance(16, 4000, seed=4000)
    solver = build(caps, flows)
    assert_matches_oracle(solver, caps, flows)
    assert solver.link_rows_swept <= 0.55 * solver.rounds * len(caps)


# ---------------------------------------------------------------------------
# hazards of decrementing user counts instead of recounting them
# ---------------------------------------------------------------------------
def test_link_listed_twice_counts_twice():
    caps = {"l": 90.0}
    flows = padded(
        [FluidFlow("twice", ["l", "l"]), FluidFlow("once", ["l"])], caps
    )
    solver = build(caps, flows)
    assert_matches_oracle(solver, caps, flows)
    # three users on "l": both flows freeze at 30, and "twice" loads it twice
    assert solver.rate("twice") == solver.rate("once") == 30.0
    assert solver.link_fluid_load_bps()["l"] == 90.0


def test_duplicate_links_are_all_released_when_the_flow_freezes():
    # "dup" freezes early on "thin"; unless both of its entries on "fat" are
    # given back, "rest" is held below the 100 it should reach
    caps = {"thin": 10.0, "fat": 100.0 + 10.0 + 10.0}
    flows = padded(
        [FluidFlow("dup", ["fat", "thin", "fat"]), FluidFlow("rest", ["fat"])],
        caps,
    )
    solver = build(caps, flows)
    assert_matches_oracle(solver, caps, flows)
    assert solver.rate("dup") == 10.0
    assert solver.rate("rest") == 100.0


def test_flow_on_two_links_saturating_together_is_frozen_once():
    caps = {"a": 20.0, "b": 20.0, "c": 100.0}
    flows = padded(
        [
            FluidFlow("both", ["a", "b", "c"]),
            FluidFlow("a2", ["a"]),
            FluidFlow("b2", ["b"]),
            FluidFlow("c2", ["c"]),
        ],
        caps,
    )
    solver = build(caps, flows)
    assert_matches_oracle(solver, caps, flows)
    assert solver.rate("both") == 10.0
    # had "both" been released from "c" twice, c2 would stop short of 90
    assert solver.rate("c2") == 90.0


class _FlowsReadSpy(np.ndarray):
    """A link -> flows array that records which links' flows are read."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.reads.append(key.start)
        return super().__getitem__(key)


@pytest.mark.parametrize("cap_on", ["link", "flow"])
def test_inf_capacity_is_parked_not_saturated_forever(cap_on):
    # An inf link (or inf rate cap) has saturation floor inf.  In use it
    # reads saturated in its first round, like in the old loop; once its
    # flows froze it must stop reading so, or every later round would gather
    # its frozen flows again.
    caps = {"wide": INF if cap_on == "link" else 1e12, "l": 50.0}
    flows = padded(
        [
            FluidFlow("x", ["wide"], rate_cap_bps=INF if cap_on == "flow" else None),
            FluidFlow("y", ["l"]),
        ],
        caps,
        n=40,
    )
    solver = build(caps, flows)
    inc = solver._incidence_arrays()
    spy = inc.l_flows.view(_FlowsReadSpy)
    spy.reads = []
    solver._incidence = inc._replace(l_flows=spy)
    assert_matches_oracle(solver, caps, flows)
    assert solver.rate("y") == 50.0
    assert solver.rate("pad0") == 1.0 / 40
    # three rounds (pad, then the inf one, then "l"), each saturated link's
    # flows read once
    assert len(spy.reads) == len(set(spy.reads)) == 3


def test_zero_capacity_link_gives_share_zero_and_still_freezes():
    caps = {"dead": 100.0, "l": 60.0}
    flows = padded(
        [FluidFlow("starved", ["dead", "l"]), FluidFlow("ok", ["l"])], caps
    )
    external = {"dead": 250.0}  # external load >= capacity
    solver = build(caps, flows, external)
    assert_matches_oracle(solver, caps, flows, external)
    assert solver.rate("starved") == 0.0
    assert solver.rate("ok") == 60.0
    assert solver.link_fluid_load_bps()["dead"] == 0.0


def test_no_saturated_link_fallback_freezes_min_flow_id():
    # Only inf links in use: the first share is inf, inf - inf leaves nan
    # behind and no link ever reads saturated again, so every round takes the
    # fallback — lexicographic flow-id order, "f10" before "f2".
    caps = {"a": INF, "b": INF}
    flows = {
        fid: FluidFlow(fid, [("a", "b")[i % 2]])
        for i, fid in enumerate(f"f{j}" for j in range(2, 36))
    }
    solver = build(caps, flows)
    assert_matches_oracle(solver, caps, flows)
    rates = solver.rates()
    assert min(flows) == "f10" and rates["f10"] == INF
    assert all(math.isnan(r) for fid, r in rates.items() if fid != "f10")
    assert solver.rounds == len(flows)  # one fallback freeze per round


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
    assert_matches_oracle(solver, caps, flows)
    assert solver.flow_links("late-flow3") == ["late3", "late21"]
    solver.set_external_load("late39", 1e6)
    assert solver.external_load_bps("late39") == 1e6
    assert_matches_oracle(solver, caps, flows, {"late39": 1e6})


def test_rounds_accumulate_and_the_scalar_path_adds_none():
    caps, flows = ecmp_instance(4, 64, seed=2)
    solver = build(caps, flows)
    solver.rates()
    first = solver.rounds
    assert first == full_scan_solve(flows, caps, {})[1] > 0
    solver.rates()
    assert solver.rounds == first  # clean read
    solver.set_capacity(next(iter(caps)), 5e8)
    solver.rates()
    assert solver.rounds > first
    small = build({"l": 1.0}, [FluidFlow("a", ["l"])])
    small.rates()
    assert (small.resolves, small.rounds) == (1, 0)


def test_a_solve_allocates_per_solve_not_per_round():
    """Round temporaries live in preallocated scratch.

    The old loop allocated several incidence-sized arrays every round; the
    traced peak of a warm re-solve must stay within a few link-sized and
    flow-sized arrays plus the returned dict, whatever the number of rounds
    (the full scan peaks at 3.5x that on this instance).
    """
    caps, flows = ecmp_instance(8, 1500, seed=3)
    solver = build(caps, flows)
    solver.rates()
    solver.set_external_load(next(iter(caps)), 1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rates = solver.rates()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solver.rounds > 2 * 200
    per_solve = 8 * (6 * len(caps) + 3 * len(flows))  # float64 arrays
    result = sys.getsizeof(rates) + 2 * 32 * len(rates)  # dict + list + floats
    assert kept - base < result
    assert peak - base < per_solve + result + 16_384


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
