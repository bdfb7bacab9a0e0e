"""Incremental FluidSolver: unit tests + reference cross-check.

The solver's contract is "same rates as :func:`max_min_fair`, computed
lazily over churn".  The hypothesis cross-check generates random
flow/link instances and compares both solvers; the vectorized numpy path
is forced by instance size in a dedicated case.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import FluidFlow, FluidSolver, max_min_fair

GBPS = 1e9


def make_solver(caps):
    s = FluidSolver()
    for link, c in caps.items():
        s.add_link(link, c)
    return s


def test_rates_match_reference_parking_lot():
    caps = {"A": 10.0, "B": 5.0}
    s = make_solver(caps)
    s.add_flow("f1", ["A", "B"])
    s.add_flow("f2", ["A"])
    s.add_flow("f3", ["B"])
    assert s.rate("f1") == pytest.approx(2.5)
    assert s.rate("f2") == pytest.approx(7.5)
    assert s.rate("f3") == pytest.approx(2.5)


def test_lazy_resolve_only_on_churn():
    s = make_solver({"l": 100.0})
    s.add_flow("a", ["l"])
    assert s.dirty
    s.rates()
    assert not s.dirty
    assert s.resolves == 1
    s.rates()
    s.rate("a")
    assert s.resolves == 1  # clean reads are free
    s.add_flow("b", ["l"])
    assert s.dirty
    assert s.rate("a") == pytest.approx(50.0)
    assert s.resolves == 2


def test_remove_flow_restores_capacity():
    s = make_solver({"l": 100.0})
    s.add_flow("a", ["l"])
    s.add_flow("b", ["l"])
    assert s.rate("a") == pytest.approx(50.0)
    s.remove_flow("b")
    assert s.rate("a") == pytest.approx(100.0)
    assert "b" not in s
    assert len(s) == 1


def test_external_load_debits_capacity():
    s = make_solver({"l": 100.0})
    s.add_flow("a", ["l"])
    s.set_external_load("l", 40.0)
    assert s.rate("a") == pytest.approx(60.0)
    s.set_external_load("l", 0.0)
    assert s.external_load_bps("l") == 0.0
    assert s.rate("a") == pytest.approx(100.0)


def test_external_load_above_capacity_clamps_to_zero():
    s = make_solver({"l": 100.0})
    s.add_flow("a", ["l"])
    s.set_external_load("l", 250.0)
    assert s.rate("a") == pytest.approx(0.0)


def test_set_capacity_dirties_and_reallocates():
    s = make_solver({"l": 100.0})
    s.add_flow("a", ["l"])
    s.rates()
    s.set_capacity("l", 10.0)
    assert s.dirty
    assert s.rate("a") == pytest.approx(10.0)


def test_rate_cap_modeled_as_virtual_link():
    s = make_solver({"l": 100.0})
    s.add_flow("a", ["l"], rate_cap_bps=10.0)
    s.add_flow("b", ["l"])
    assert s.rate("a") == pytest.approx(10.0)
    assert s.rate("b") == pytest.approx(90.0)


def test_pathless_flow_is_unconstrained():
    s = make_solver({"l": 100.0})
    s.add_flow("free", [])
    assert s.rate("free") == float("inf")
    # and it must not pollute link loads
    assert s.link_fluid_load_bps() == {}


def test_duplicate_flow_and_unknown_link_rejected():
    s = make_solver({"l": 100.0})
    s.add_flow("a", ["l"])
    with pytest.raises(ValueError):
        s.add_flow("a", ["l"])
    with pytest.raises(KeyError):
        s.add_flow("b", ["nope"])
    with pytest.raises(KeyError):
        s.set_external_load("nope", 1.0)


@pytest.mark.parametrize("cap", [-5.0, float("nan")])
def test_negative_or_nan_rate_cap_rejected(cap):
    # a -5 cap once came back as a rate of -5, and its link's other flow
    # took 15 of the 10 bps
    s = make_solver({"l": 10.0})
    with pytest.raises(ValueError):
        s.add_flow("a", ["l"], rate_cap_bps=cap)
    assert "a" not in s
    s.add_flow("b", ["l"])
    assert s.rates() == {"b": 10.0}
    with pytest.raises(ValueError):
        max_min_fair([FluidFlow("a", ["l"], cap)], {"l": 10.0})
    # a zero cap is a flow that may not send
    s.add_flow("z", ["l"], rate_cap_bps=0.0)
    assert s.rates() == {"b": 10.0, "z": 0.0}


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_negative_or_nan_capacity_or_load_rejected(bad):
    # a -1 capacity once came back as a rate of -1 and a nan one as inf
    # from the reference; the solver gave 0.0 for a nan capacity or load
    with pytest.raises(ValueError):
        max_min_fair([FluidFlow("a", ["l"])], {"l": bad})
    with pytest.raises(ValueError):
        FluidSolver({"l": bad})
    s = make_solver({"l": 10.0})
    with pytest.raises(ValueError):
        s.add_link("m", bad)
    s.add_flow("a", ["l"])
    with pytest.raises(ValueError):
        s.set_capacity("l", bad)
    with pytest.raises(ValueError):
        s.set_external_load("l", bad)
    # nothing was registered or changed
    assert (s.rates(), s.external_load_bps("l"), s.nominal_rates()) == (
        {"a": 10.0}, 0.0, {"a": 10.0},
    )
    with pytest.raises(KeyError):
        s.add_flow("b", ["m"])


def test_infinite_capacity_and_load_stay_legal():
    inf = float("inf")
    assert max_min_fair([FluidFlow("a", ["l"])], {"l": inf}).rates_bps == {"a": inf}
    s = make_solver({"l": 10.0, "m": 10.0})
    s.add_flow("a", ["l"])
    s.add_flow("b", ["m"])
    s.set_capacity("l", inf)
    s.set_external_load("m", inf)
    assert s.rates() == {"a": inf, "b": 0.0}
    assert s.nominal_rates() == {"a": inf, "b": 10.0}


def test_allocation_view_matches_reference():
    caps = {"A": 10.0, "B": 5.0}
    s = make_solver(caps)
    s.add_flow("f1", ["A", "B"])
    s.add_flow("f2", ["A"])
    ref = max_min_fair(
        [FluidFlow("f1", ["A", "B"]), FluidFlow("f2", ["A"])], caps
    )
    alloc = s.allocation()
    for fid in ("f1", "f2"):
        assert alloc.rate(fid) == pytest.approx(ref.rate(fid))
    for link in caps:
        assert alloc.link_load_bps[link] == pytest.approx(
            ref.link_load_bps[link]
        )


def test_vectorized_path_matches_reference_at_gigabit_scale():
    """The array loop against the reference on 64 flows at gigabit capacities."""
    n_links, n_flows = 12, 64
    caps = {f"l{i}": GBPS * (1 + i % 3) for i in range(n_links)}
    flows = [
        FluidFlow(
            f"f{j}",
            [f"l{(j + k) % n_links}" for k in range(1 + j % 4)],
            rate_cap_bps=GBPS / 2 if j % 7 == 0 else None,
        )
        for j in range(n_flows)
    ]
    s = make_solver(caps)
    for f in flows:
        s.add_flow(f.flow_id, f.links, rate_cap_bps=f.rate_cap_bps)
    ref = max_min_fair(flows, caps)
    got = s.rates()
    assert len(got) == n_flows
    for fid, want in ref.rates_bps.items():
        assert got[fid] == pytest.approx(want, rel=1e-12), fid


@st.composite
def fluid_instances(draw):
    n_links = draw(st.integers(min_value=1, max_value=6))
    caps = {
        f"l{i}": draw(st.floats(min_value=1.0, max_value=1000.0))
        for i in range(n_links)
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for j in range(n_flows):
        links = draw(
            st.lists(
                st.sampled_from(sorted(caps)), min_size=1, max_size=n_links,
                unique=True,
            )
        )
        cap = draw(
            st.one_of(st.none(), st.floats(min_value=0.5, max_value=500.0))
        )
        flows.append(FluidFlow(f"f{j}", links, rate_cap_bps=cap))
    return caps, flows


@settings(max_examples=60, deadline=None)
@given(fluid_instances())
def test_incremental_matches_reference(instance):
    caps, flows = instance
    s = make_solver(caps)
    for f in flows:
        s.add_flow(f.flow_id, f.links, rate_cap_bps=f.rate_cap_bps)
    ref = max_min_fair(flows, caps)
    got = s.rates()
    for fid, want in ref.rates_bps.items():
        assert got[fid] == pytest.approx(want, rel=1e-12, abs=1e-9), fid


@settings(max_examples=30, deadline=None)
@given(fluid_instances(), st.integers(min_value=0, max_value=7))
def test_churn_sequence_matches_fresh_solve(instance, drop_index):
    """Remove one flow after solving: rates must equal a fresh instance."""
    caps, flows = instance
    s = make_solver(caps)
    for f in flows:
        s.add_flow(f.flow_id, f.links, rate_cap_bps=f.rate_cap_bps)
    s.rates()  # solve once, then churn
    victim = flows[drop_index % len(flows)]
    s.remove_flow(victim.flow_id)
    survivors = [f for f in flows if f.flow_id != victim.flow_id]
    ref = max_min_fair(survivors, caps)
    got = s.rates()
    assert set(got) == set(ref.rates_bps)
    for fid, want in ref.rates_bps.items():
        assert got[fid] == pytest.approx(want, rel=1e-12, abs=1e-9), fid
