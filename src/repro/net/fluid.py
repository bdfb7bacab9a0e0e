"""Fluid max-min fair bandwidth allocation.

Long-running bulk transfers (the paper's iperf measurements, Fig 9) settle at
a bandwidth-sharing fixed point rather than being interesting packet by
packet.  This module computes the classic **max-min fair** allocation over
the links each flow traverses.

Per-flow rate caps (e.g. a Tor relay whose AES throughput is CPU-bound) are
modeled as single-user virtual links, which keeps the filling loop uniform.
A flow whose links all have infinite effective capacity gets ``inf``, like a
flow with no links at all.  No input yields ``nan``: a negative or nan
capacity, external load or rate cap is a ``ValueError`` (``inf`` is legal),
and an infinite external load on an infinite link leaves it no capacity.

Two implementations share the model:

* :func:`max_min_fair` — the pure-python **reference** solver (progressive
  filling, one bottleneck level per iteration, deterministic, one-shot).
  Everything else is tested against it.
* :class:`FluidSolver` — the **incremental** engine behind
  :mod:`repro.net.hybrid`: array-backed per-link state, flow/capacity churn
  that dirties the allocation instead of rebuilding it, per-link external
  (packet-level) load debits, a cached nominal solve over raw capacities,
  and a numpy loop that freezes every local bottleneck in the same round.
  ``tests/net/test_fluid_solver.py`` holds its rates equal to the reference
  on random instances; ``tests/net/test_fluid_incremental.py`` checks the
  max-min certificate on every instance it generates and compares with the
  one-level-per-round loop it replaced.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["FluidFlow", "FluidAllocation", "FluidSolver", "max_min_fair"]

LinkId = Hashable


@dataclass
class FluidFlow:
    """One steady-state flow over an ordered set of resources."""

    flow_id: str
    links: Sequence[LinkId]
    rate_cap_bps: Optional[float] = None


@dataclass
class FluidAllocation:
    """Solver result: per-flow rates and per-link loads."""

    rates_bps: dict[str, float]
    link_load_bps: dict[LinkId, float]
    link_capacity_bps: dict[LinkId, float]

    def rate(self, flow_id: str) -> float:
        """The allocated rate of one flow, in bits/s."""
        return self.rates_bps[flow_id]

    def utilization(self, link: LinkId) -> float:
        """Load/capacity for one link (0..1)."""
        cap = self.link_capacity_bps[link]
        return self.link_load_bps.get(link, 0.0) / cap if cap > 0 else 0.0

    def bottlenecked_links(self, tol: float = 1e-6) -> list[LinkId]:
        """Links loaded to capacity (within tolerance)."""
        return [
            l
            for l, cap in self.link_capacity_bps.items()
            if cap > 0 and self.link_load_bps.get(l, 0.0) >= cap * (1 - tol)
        ]


def _negative_or_nan(what: str, value: float) -> ValueError:
    # callers test ``not value >= 0`` inline (it also refuses nan; inf
    # passes), so a valid value costs no call
    return ValueError(f"{what}: negative or nan {value!r}")


def _check_capacities(capacities_bps: dict[LinkId, float]) -> None:
    for link, cap in capacities_bps.items():
        if not cap >= 0:
            raise _negative_or_nan(f"link {link!r} capacity", cap)


def max_min_fair(
    flows: Iterable[FluidFlow],
    capacities_bps: dict[LinkId, float],
) -> FluidAllocation:
    """Progressive-filling max-min fair allocation.

    Every iteration finds the most constrained resource (least remaining
    capacity per active flow), freezes its flows at the fair share, and
    repeats.  Runs in O(iterations × links); iterations ≤ number of flows.
    A negative or nan capacity or rate cap is a ``ValueError``.
    """
    _check_capacities(capacities_bps)
    flows = list(flows)
    ids = [f.flow_id for f in flows]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate flow ids")

    # Effective link set: physical links plus one virtual cap-link per flow.
    capacity: dict[LinkId, float] = dict(capacities_bps)
    users: dict[LinkId, set[str]] = {l: set() for l in capacity}
    flow_links: dict[str, list[LinkId]] = {}
    for f in flows:
        resolved: list[LinkId] = []
        for l in f.links:
            if l not in capacity:
                raise KeyError(f"flow {f.flow_id} uses unknown link {l!r}")
            resolved.append(l)
        if f.rate_cap_bps is not None:
            if not f.rate_cap_bps >= 0:
                raise _negative_or_nan(f"flow {f.flow_id} rate cap", f.rate_cap_bps)
            cap_link: LinkId = ("__cap__", f.flow_id)
            capacity[cap_link] = f.rate_cap_bps
            users[cap_link] = set()
            resolved.append(cap_link)
        flow_links[f.flow_id] = resolved
        for l in resolved:
            users[l].add(f.flow_id)

    rates: dict[str, float] = {f.flow_id: 0.0 for f in flows}
    remaining: dict[LinkId, float] = dict(capacity)
    active: set[str] = {f.flow_id for f in flows if flow_links[f.flow_id]}
    # Flows traversing no links at all are unconstrained; report inf.
    for f in flows:
        if not flow_links[f.flow_id]:
            rates[f.flow_id] = float("inf")

    while active:
        # Fair share each link could still give to each of its active flows.
        bottleneck_share = float("inf")
        for l, flow_set in users.items():
            live = flow_set & active
            if not live:
                continue
            share = remaining[l] / len(live)
            if share < bottleneck_share:
                bottleneck_share = share
        if bottleneck_share == float("inf"):
            # every active flow is on infinite links only: unconstrained
            for fid in active:
                rates[fid] = float("inf")
            break
        # Raise every active flow by the bottleneck share.
        for fid in active:
            rates[fid] += bottleneck_share
        for l, flow_set in users.items():
            live = flow_set & active
            if live:
                remaining[l] -= bottleneck_share * len(live)
        # Freeze flows sitting on saturated links.
        saturated = {l for l in users if remaining[l] <= 1e-9 and (users[l] & active)}
        frozen = {fid for fid in active if any(l in saturated for l in flow_links[fid])}
        if not frozen:
            # Numerical safety: freeze the single most-constrained flow.
            frozen = {min(active)}
        active -= frozen

    # Aggregate physical link loads (exclude virtual cap links).
    load: dict[LinkId, float] = {}
    for f in flows:
        r = rates[f.flow_id]
        if r == float("inf"):
            continue
        for l in f.links:
            load[l] = load.get(l, 0.0) + r
    return FluidAllocation(
        rates_bps=rates,
        link_load_bps=load,
        link_capacity_bps=dict(capacities_bps),
    )


class _Incidence(NamedTuple):
    """Flow×link incidence of the current flow set, as flat arrays.

    Rebuilt only after a flow is added or a link registered; removing flows
    masks their entries out (:func:`_drop_flows`), and capacity and
    external-load changes reuse it.  Flows are numbered in registration
    order, physical links by their row in the solver's link table, and each
    rate-capped flow's virtual single-user cap link follows at
    ``n_phys + j``.
    """

    n_phys: int
    #: the flow ids numbered, in registration order
    flow_ids: list
    #: link rows, flow-major — each flow's physical rows, then its cap
    #: link's — and how many each flow has: the summation order of loads
    link_of: np.ndarray
    lens: np.ndarray
    #: capacities of the virtual cap links
    cap_rates: np.ndarray


def _drop_flows(inc: _Incidence, keep: np.ndarray, flow_ids: list) -> _Incidence:
    """``inc`` without the flows ``keep`` is False for, renumbered.

    Masking keeps every surviving entry in its relative order, which is the
    order a rebuild over the surviving flows produces; cap links keep their
    relative order too and close ranks behind the physical rows.
    """
    n_phys = inc.n_phys
    kept = np.repeat(keep, inc.lens)
    link_of = inc.link_of[kept]
    cap_rates = inc.cap_rates[kept[inc.link_of >= n_phys]]
    link_of[link_of >= n_phys] = np.arange(n_phys, n_phys + len(cap_rates))
    return _Incidence(
        n_phys=n_phys,
        flow_ids=flow_ids,
        link_of=link_of,
        lens=inc.lens[keep],
        cap_rates=cap_rates,
    )


class FluidSolver:
    """Incremental max-min fair allocator with array-backed link state.

    Where :func:`max_min_fair` rebuilds the whole problem per call, a
    ``FluidSolver`` holds the link table and flow set between solves and
    recomputes **only when dirty** — flow add/remove, capacity changes and
    external-load updates mark the allocation stale; :meth:`rates` re-solves
    lazily on the next read.  This is the churn model the hybrid engine
    needs: thousands of epoch advances read a cached allocation, and only
    epochs that saw churn pay for a re-solve.

    Per-link **external load** is the packet-level hand-off: bytes the packet
    simulator carried on a shared link are debited from the capacity the
    fluid flows may fill (``effective = max(capacity - external, 0)``).

    :meth:`nominal_rates` is the same solve over raw capacities, blind to
    external loads (the hybrid engine's peer reservations), cached apart.

    Link names are resolved to rows of the capacity / external-load arrays
    once, in :meth:`add_flow` (a caller holding rows hands them to
    :meth:`add_flow_rows`) — a flow is stored as its tuple of rows — and
    the flow×link incidence is kept between solves (removals mask it).  A
    filling round gives every link its fair level and freezes the flows of
    every link that is a bottleneck for all of them at once, so the rounds
    follow the depth of the bottleneck structure, not the number of
    distinct rates.  Every instance, however small, takes that one loop;
    :func:`max_min_fair` stays as the reference it is checked against.
    """

    def __init__(self, capacities_bps: Optional[dict[LinkId, float]] = None):
        caps = capacities_bps or {}
        _check_capacities(caps)
        #: link id -> row of the per-link arrays (registration order)
        self._link_row: dict[LinkId, int] = dict(zip(caps, range(len(caps))))
        self._cap = array("d", caps.values())
        self._ext = array("d", bytes(8 * len(caps)))
        #: flow id -> link rows along it, as add_flow_rows registered them
        self._flows: dict[str, tuple[int, ...]] = {}
        #: rate caps of the flows that have one
        self._rate_caps: dict[str, float] = {}
        self._incidence: Optional[_Incidence] = None
        self._rates: dict[str, float] = {}
        self._dirty = True
        #: the cached nominal allocation; None = stale
        self._nominal: Optional[dict[str, float]] = None
        #: how many times the allocation was recomputed (obs counter)
        self.resolves = 0
        #: filling rounds of the array loop, summed over solves: the work
        #: counter that explains solve time (obs counter)
        self.rounds = 0
        #: flow×link entries (cap links included) of the flows still active
        #: at the start of each round, summed over rounds and solves (obs
        #: counter)
        self.entries_swept = 0

    # -- link table -------------------------------------------------------
    def add_link(self, link: LinkId, capacity_bps: float) -> None:
        """Register a link (idempotent only via :meth:`set_capacity`)."""
        if link in self._link_row:
            raise ValueError(f"link {link!r} already registered")
        if not capacity_bps >= 0:
            raise _negative_or_nan(f"link {link!r} capacity", capacity_bps)
        self._link_row[link] = len(self._cap)
        self._cap.append(capacity_bps)
        self._ext.append(0.0)
        self._incidence = None  # cap links are numbered after the physical ones
        self._nominal = None
        self._dirty = True

    def set_capacity(self, link: LinkId, capacity_bps: float) -> None:
        """Change a link's capacity (topology churn: up/down/resize)."""
        row = self._link_row.get(link)
        if row is None:
            raise KeyError(f"unknown link {link!r}")
        if not capacity_bps >= 0:
            raise _negative_or_nan(f"link {link!r} capacity", capacity_bps)
        if self._cap[row] != capacity_bps:
            self._cap[row] = capacity_bps
            self._nominal = None
            self._dirty = True

    def set_external_load(self, link: LinkId, load_bps: float) -> None:
        """Debit packet-level load from a link's fluid-fillable capacity."""
        row = self._link_row.get(link)
        if row is None:
            raise KeyError(f"unknown link {link!r}")
        if not load_bps >= 0:
            raise _negative_or_nan(f"link {link!r} external load", load_bps)
        if self._ext[row] != load_bps:
            self._ext[row] = load_bps
            self._dirty = True

    def external_load_bps(self, link: LinkId) -> float:
        """The packet-level load currently debited from one link."""
        row = self._link_row.get(link)
        return 0.0 if row is None else self._ext[row]

    # -- flow churn -------------------------------------------------------
    def add_flow(
        self,
        flow_id: str,
        links: Sequence[LinkId],
        rate_cap_bps: Optional[float] = None,
    ) -> None:
        """Add one flow over ``links``; see :meth:`add_flow_rows`."""
        try:
            rows = tuple(map(self._link_row.__getitem__, links))
        except KeyError as exc:
            raise KeyError(
                f"flow {flow_id} uses unknown link {exc.args[0]!r}"
            ) from None
        self.add_flow_rows(flow_id, rows, rate_cap_bps)

    def add_flow_rows(
        self, flow_id: str, rows: tuple[int, ...], rate_cap_bps: Optional[float] = None
    ) -> None:
        """Add one flow over link ``rows``; dirties both allocations.

        ``rows`` are registration indices of links already added, in path
        order, as :meth:`flow_rows` returns them; they are not checked.  A
        duplicate ``flow_id``, or a negative or nan ``rate_cap_bps``, is a
        ``ValueError``.
        """
        if flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        if rate_cap_bps is not None:
            if not rate_cap_bps >= 0:
                raise _negative_or_nan(f"flow {flow_id} rate cap", rate_cap_bps)
            self._rate_caps[flow_id] = rate_cap_bps
        self._flows[flow_id] = rows
        self._incidence = None
        self._nominal = None
        self._dirty = True

    def remove_flow(self, flow_id: str) -> None:
        """Remove one flow; dirties the allocation."""
        self.remove_flows((flow_id,))

    def remove_flows(self, flow_ids: Iterable[str]) -> None:
        """Remove several flows at once; dirties the allocation.

        The incidence is not rebuilt: the next solve masks the removed
        flows' entries out of it.
        """
        self._dirty = True
        self._nominal = None
        flows, caps, rates = self._flows, self._rate_caps, self._rates
        for flow_id in flow_ids:
            del flows[flow_id]
            caps.pop(flow_id, None)
            rates.pop(flow_id, None)

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    @property
    def dirty(self) -> bool:
        """True when churn since the last solve invalidated the rates."""
        return self._dirty

    def flow_links(self, flow_id: str) -> list[LinkId]:
        """The links one registered flow traverses."""
        ids = list(self._link_row)
        return [ids[row] for row in self._flows[flow_id]]

    def flow_rows(self, flow_id: str) -> tuple[int, ...]:
        """The rows (link registration indices) one registered flow traverses."""
        return self._flows[flow_id]

    # -- solving ----------------------------------------------------------
    def _effective_array(self) -> np.ndarray:
        # fmax: an infinite external load on an infinite link (inf - inf)
        # leaves nothing, so no nan reaches the filling loop
        return np.fmax(np.frombuffer(self._cap) - np.frombuffer(self._ext), 0.0)

    def rates(self) -> dict[str, float]:
        """Per-flow allocated rates (bps), re-solving only when dirty."""
        if self._dirty:
            self._rates, rounds, swept = self._solve(self._effective_array())
            self._dirty = False
            self.resolves += 1
            self.rounds += rounds
            self.entries_swept += swept
        return self._rates

    def nominal_rates(self) -> dict[str, float]:
        """Per-flow rates (bps) over raw capacities, ignoring external loads.

        Cached until the flow set, a link or a capacity changes (an external
        load leaves it clean); ``resolves``, ``rounds`` and ``entries_swept``
        count :meth:`rates` solves only.
        """
        if self._nominal is None:
            self._nominal = self._solve(np.frombuffer(self._cap))[0]
        return self._nominal

    def rate(self, flow_id: str) -> float:
        """One flow's allocated rate in bps."""
        return self.rates()[flow_id]

    def link_fluid_load_bps(self) -> dict[LinkId, float]:
        """Aggregate fluid load per physical link under the current rates."""
        load, link_of = self._link_load()
        loaded = np.flatnonzero(np.bincount(link_of, minlength=len(load)))
        ids = list(self._link_row)
        return {
            ids[i]: v for i, v in zip(loaded.tolist(), load[loaded].tolist())
        }

    def link_load_array(self) -> np.ndarray:
        """Fluid load of every physical link, by row in registration order.

        The values of :meth:`link_fluid_load_bps`, with 0.0 for links no
        finite-rate flow loads.
        """
        return self._link_load()[0]

    def _link_load(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row load and the link rows of the finite-rate entries."""
        rates = self.rates()
        inc = self._incidence_arrays()
        rate_of = np.fromiter(
            map(rates.__getitem__, self._flows), np.float64, len(self._flows)
        )
        link_of, weight = inc.link_of, np.repeat(rate_of, inc.lens)
        # physical entries of finite-rate flows
        use = weight != float("inf")
        if len(inc.cap_rates):
            use &= link_of < inc.n_phys
        if not use.all():
            link_of, weight = link_of[use], weight[use]
        # bincount adds in entry order, which is flow-major: each link sums
        # its flows' rates in registration order
        return np.bincount(link_of, weights=weight, minlength=inc.n_phys), link_of

    def allocation(self) -> FluidAllocation:
        """The current allocation as a :class:`FluidAllocation` view."""
        return FluidAllocation(
            rates_bps=dict(self.rates()),
            link_load_bps=self.link_fluid_load_bps(),
            link_capacity_bps=dict(zip(self._link_row, self._effective_array().tolist())),
        )

    # -- water filling ----------------------------------------------------
    def _incidence_arrays(self) -> _Incidence:
        """The flow×link incidence, rebuilt only after flow adds or a new link."""
        inc = self._incidence
        if inc is not None:
            if len(inc.flow_ids) != len(self._flows):
                # only removals since the build (an add drops the incidence)
                keep = np.fromiter(
                    map(self._flows.__contains__, inc.flow_ids),
                    dtype=bool,
                    count=len(inc.flow_ids),
                )
                inc = self._incidence = _drop_flows(inc, keep, list(self._flows))
            return inc
        n_phys, caps = len(self._cap), self._rate_caps
        rows = list(self._flows.values())
        # Virtual single-user cap links keep the filling loop uniform.
        cap_rates = []
        for i, fid in enumerate(self._flows):
            if fid in caps:
                rows[i] += (n_phys + len(cap_rates),)
                cap_rates.append(caps[fid])
        lens = np.fromiter(map(len, rows), np.intp, len(rows))
        inc = self._incidence = _Incidence(
            n_phys=n_phys,
            flow_ids=list(self._flows),
            link_of=np.fromiter(chain.from_iterable(rows), np.intp, int(lens.sum())),
            lens=lens,
            cap_rates=np.array(cap_rates, dtype=np.float64),
        )
        return inc

    def _solve(self, link_capacity: np.ndarray) -> tuple[dict[str, float], int, int]:
        """Max-min rates over per-row ``link_capacity`` by parallel water
        filling: every local bottleneck freezes per round.

        A round gives every link the fair ``level`` its remaining capacity
        offers each of its active entries, ``(capacity - frozen load) /
        active entries``, floored at 0.  An active flow's ``fair`` rate is
        the least level along it.  A link is a bottleneck when none of its
        active flows has a fair rate below its level; every active flow on a
        bottleneck link freezes at its fair rate, its rate is added to the
        frozen load of each of its entries (a link listed twice counts
        twice), and its entries leave the active set.

        This is the bottleneck characterization of max-min fairness
        (Bertsekas & Gallager, *Data Networks*, §6.5.2): a link's level
        never falls while its flows freeze below it, so a frozen flow's
        bottleneck ends saturated with no flow on it above that rate.  The
        lowest level is a bottleneck, so every round freezes at least one
        flow — there is no saturation tolerance and no fallback, and at most
        as many rounds as flows.  Infinite rates load nothing: an
        infinite link's level stays infinite.  Returns the rates, the rounds
        and the entries swept.
        """
        inc = self._incidence_arrays()
        capacity = np.concatenate((link_capacity, inc.cap_rates))
        n_links, n_flows, inf = len(capacity), len(inc.lens), float("inf")
        # the active entries and their flows; pathless flows have none and
        # stay unconstrained (inf), mirroring the reference
        link_of = inc.link_of
        flow_of = np.repeat(np.arange(n_flows), inc.lens)
        rates = np.full(n_flows, inf)
        count = np.bincount(link_of, minlength=n_links).astype(np.float64)
        load = np.zeros(n_links)
        level, least = np.empty(n_links), np.empty(n_links)
        fair, frozen = np.empty(n_flows), np.empty(n_flows, dtype=bool)
        rounds = swept = 0
        # a link no active entry is on divides by zero; its level is unread
        with np.errstate(divide="ignore", invalid="ignore"):
            while len(link_of):
                rounds += 1
                swept += len(link_of)
                np.subtract(capacity, load, out=level)
                np.divide(level, count, out=level)
                np.maximum(level, 0.0, out=level)
                at = level[link_of]
                fair.fill(inf)
                np.minimum.at(fair, flow_of, at)
                fair_at = fair[flow_of]
                # the least fair rate on each link: a bottleneck's is its level
                least.fill(inf)
                np.minimum.at(least, link_of, fair_at)
                frozen.fill(False)
                frozen[flow_of[(least >= level)[link_of]]] = True
                np.copyto(rates, fair, where=frozen)
                gone = frozen[flow_of]
                freed, rate = link_of[gone], fair_at[gone]
                np.subtract(count, np.bincount(freed, minlength=n_links), out=count)
                finite = rate != inf
                load += np.bincount(
                    freed[finite], weights=rate[finite], minlength=n_links
                )
                live = ~gone
                link_of, flow_of = link_of[live], flow_of[live]
        return dict(zip(self._flows, rates.tolist())), rounds, swept
