"""Deterministic self-profiling for the simulator's own hot paths.

Every prior obs layer instruments the *simulated network*; this one
instruments the *simulator* — where does a run's wall time actually go?
A :class:`Profiler` is wired into a contracted set of subsystems
(:data:`PROF_SUBSYSTEMS`, doc-diffed against ``docs/observability.md``):
the event-loop dispatch, flow-table classification, fluid re-solves,
hybrid epoch phases, the MC's shard routing and the obs/journey hot-path
hooks.  No ``sys.setprofile``, no tracing of arbitrary frames.  Everything
is bracketed from here: :meth:`Profiler.hook` (and :meth:`~Profiler.hook_hybrid`,
:meth:`~Profiler.hook_mic`) wraps each instrumented method on the hooked
instance — the simulator's ``step`` included — through
:mod:`repro.obs.seam`, so the instrumented modules never see the profiler.
An unprofiled run carries no wrapper at all: it is byte-identical and pays
nothing (``benchmarks/bench_prof_overhead.py`` keeps that honest).

Attribution follows the classic self/cumulative split: a frame's
*cumulative* time is enter-to-exit wall-ns; its *self* time excludes the
nanoseconds attributed to nested frames (a ``fluid.solve`` inside a
``hybrid.epoch`` counts once, at the leaf).  Invocation counts and the
named per-subsystem counters (event kinds, lookup path split, solver
work, heap depth) are **deterministic** for a seeded run — only the
wall-ns fields vary machine to machine — which is what the determinism
tests pin.

The export surface: :meth:`Profiler.report` → :class:`ProfileReport`,
its JSON doc rides in snapshot exports (``"profile"`` section, snapshot
version 2), :func:`format_prof_top` renders the text "top" table
(``python -m repro.obs prof-top``), and the Perfetto exporter turns the
optional every-Nth-dispatch samples into counter tracks.
"""

# The profiler's whole job is reading the process clock; simulated results
# never read these values.  # lint: file-allow(wall-clock)

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from ..sim.engine import Event
from .seam import links, unwrap, wrap

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network

__all__ = [
    "PROF_SUBSYSTEMS",
    "ProfSubsystem",
    "ProfileReport",
    "Profiler",
    "dispatch_kind",
    "format_prof_table",
    "format_prof_top",
]


# ---------------------------------------------------------------------------
# The subsystem contract.  docs/observability.md embeds the rendered table;
# tests/obs/test_prof.py diffs them both ways.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProfSubsystem:
    """One contracted profiling frame: who opens it and what it counts."""

    name: str
    owner: str  # the instrumented code location
    measures: str  # what enter..exit brackets
    counters: str  # named deterministic counters this frame accumulates


PROF_SUBSYSTEMS: tuple[ProfSubsystem, ...] = (
    ProfSubsystem(
        "scenario.setup",
        "repro.bench.hybrid_scenario.run_hybrid_scenario",
        "topology build, arithmetic path planning, rule installs and "
        "process creation before the event loop starts",
        "—",
    ),
    ProfSubsystem(
        "sim.run",
        "repro.sim.engine.Simulator.run",
        "one frame per run() call — the profile's root; its self time is "
        "the loop overhead outside per-event dispatch",
        "—",
    ),
    ProfSubsystem(
        "sim.dispatch",
        "repro.sim.engine.Simulator.step",
        "popping one event and running its callbacks",
        "`event.<Kind>` (dispatches per event class), `heap.depth.sum`, "
        "`heap.depth.max` (pre-pop heap sizes)",
    ),
    ProfSubsystem(
        "flowtable.lookup",
        "repro.net.flowtable.FlowTable.lookup",
        "classifying one packet through the cache and tuple-space indexes",
        "`path.cached`, `path.indexed`",
    ),
    ProfSubsystem(
        "fluid.solve",
        "repro.net.fluid.FluidSolver.rates",
        "re-solving a dirtied max-min allocation (clean reads open no frame)",
        "`flows.solved` (flow-set size summed over solves), `rounds` "
        "(water-filling rounds summed over solves — `FluidSolver.rounds`, "
        "the work that explains the self time), `entries.swept` (flow×link entries, cap "
        "links included, still active at the start of those rounds — "
        "`FluidSolver.entries_swept`)",
    ),
    ProfSubsystem(
        "hybrid.epoch",
        "repro.net.hybrid.HybridEngine._epoch_tick",
        "one whole epoch tick; `hybrid.measure`, `fluid.solve` and "
        "`hybrid.advance` nest inside it",
        "—",
    ),
    ProfSubsystem(
        "hybrid.measure",
        "repro.net.hybrid.HybridEngine._measure_phase",
        "refreshing peer reservations and debiting measured packet bytes "
        "from fluid-fillable capacity",
        "—",
    ),
    ProfSubsystem(
        "hybrid.advance",
        "repro.net.hybrid.HybridEngine._advance_phase",
        "advancing live fluid transfers by rate × dt and finishing those "
        "that complete",
        "—",
    ),
    ProfSubsystem(
        "obs.hook",
        "repro.obs.Observer.on_host_rx / JourneyRecorder._record",
        "the observability layer's own per-packet hook bodies",
        "`host_rx`, `journey_emit`",
    ),
    ProfSubsystem(
        "controlplane.route",
        "repro.core.controller.MimicController._route / _send",
        "routing one control request or install bundle to its owning "
        "shard through the rendezvous ownership map (every run, sharded "
        "or not)",
        "`requests.routed`, `mods.routed`, `mods.remote` (mods issued by a "
        "non-owning shard and forwarded)",
    ),
)

_SUBSYSTEM_NAMES = {s.name for s in PROF_SUBSYSTEMS}


def format_prof_table(subsystems: Iterable[ProfSubsystem] = PROF_SUBSYSTEMS) -> str:
    """Render the subsystem contract as the markdown table docs embed."""
    lines = [
        "| subsystem | instrumented in | measures | counters |",
        "| --- | --- | --- | --- |",
    ]
    for s in subsystems:
        lines.append(
            f"| `{s.name}` | `{s.owner}` | {s.measures} | {s.counters} |"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------
@dataclass
class ProfileReport:
    """One profiling window, reduced to its export form.

    ``subsystems`` rows carry ``name``/``calls``/``self_ns``/``cum_ns``/
    ``counters``; ``window_ns`` is profiler-creation to report wall-ns, so
    ``attributed_fraction`` answers "how much of the run do the contracted
    frames explain?".  ``samples`` (optional, every-Nth-dispatch) feed the
    Perfetto counter tracks.
    """

    window_ns: int
    sim_span_s: float
    dispatches: int
    subsystems: list[dict] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)

    @property
    def attributed_ns(self) -> int:
        """Wall-ns attributed to contracted frames (self times are disjoint)."""
        return sum(row["self_ns"] for row in self.subsystems)

    @property
    def attributed_fraction(self) -> float:
        """attributed_ns over the whole window (0.0 on an empty window)."""
        return self.attributed_ns / self.window_ns if self.window_ns > 0 else 0.0

    def counts(self) -> dict[str, dict]:
        """The deterministic fingerprint: calls + counters, no wall-ns.

        Two seeded runs of the same scenario must produce equal ``counts()``
        on any machine — this is what the determinism tests compare.
        """
        return {
            row["name"]: {
                "calls": row["calls"],
                "counters": dict(row.get("counters", {})),
            }
            for row in self.subsystems
        }

    def to_doc(self) -> dict:
        """The JSON form snapshots embed under their ``"profile"`` key."""
        return {
            "window_ns": self.window_ns,
            "attributed_ns": self.attributed_ns,
            "attributed_fraction": round(self.attributed_fraction, 4),
            "sim_span_s": self.sim_span_s,
            "dispatches": self.dispatches,
            "subsystems": [dict(row) for row in self.subsystems],
            "samples": [dict(s) for s in self.samples],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ProfileReport":
        """Rebuild a report from its JSON form (extra keys ignored)."""
        return cls(
            window_ns=int(doc["window_ns"]),
            sim_span_s=float(doc.get("sim_span_s", 0.0)),
            dispatches=int(doc.get("dispatches", 0)),
            subsystems=[dict(row) for row in doc.get("subsystems", [])],
            samples=[dict(s) for s in doc.get("samples", [])],
        )


def _fmt_ns(ns: float) -> str:
    """Human wall-time rendering: ns → µs/ms/s with 3 significant figures."""
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.1f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def format_prof_top(source: "ProfileReport | dict") -> str:
    """The text "top" table: subsystems by self time, counters inline.

    Accepts a :class:`ProfileReport`, its ``to_doc()`` form, or a snapshot
    JSON doc carrying a ``"profile"`` section.
    """
    if isinstance(source, dict):
        doc = source.get("profile", source)
        report = ProfileReport.from_doc(doc)
    else:
        report = source
    head = (
        f"self-profile: wall={_fmt_ns(report.window_ns)} "
        f"attributed={report.attributed_fraction * 100.0:.1f}% "
        f"sim={report.sim_span_s:.3f}s dispatches={report.dispatches}"
    )
    lines = [
        head,
        f"{'subsystem':<18s} {'calls':>10s} {'self':>10s} {'cum':>10s} {'self%':>7s}",
    ]
    window = max(report.window_ns, 1)
    rows = sorted(report.subsystems, key=lambda r: -r["self_ns"])
    for row in rows:
        lines.append(
            f"{row['name']:<18s} {row['calls']:>10d} "
            f"{_fmt_ns(row['self_ns']):>10s} {_fmt_ns(row['cum_ns']):>10s} "
            f"{100.0 * row['self_ns'] / window:>6.1f}%"
        )
        counters = row.get("counters") or {}
        for key in sorted(counters):
            lines.append(f"{'':<18s}   {key} = {counters[key]:g}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------
def dispatch_kind(fn: Callable[..., None]) -> str:
    """The ``sim.dispatch`` counter one heap call lands in.

    An event's callbacks (``fn`` is its bound ``_run_callbacks``) count as
    ``event.<its class>``; every other call — a ``call_later`` /
    ``call_at`` — counts as ``event.Callback``, a label, not a class.
    """
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, Event) and fn.__func__ is Event._run_callbacks:
        return "event." + type(owner).__name__
    return "event.Callback"


# ---------------------------------------------------------------------------
# Brackets: each is one repro.obs.seam hook, bound to
# (profiler, profiled instance, inner) on the instance it profiles.
# ---------------------------------------------------------------------------
def _frame(name: str, key: str = "") -> Callable[..., Any]:
    """The bracket running its inner call in frame ``name``; a ``key`` counts
    each call that returns."""

    def framed(link: tuple, *args: Any, **kwargs: Any) -> Any:
        prof = link[0]
        prof.enter(name)
        try:
            result = link[2](*args, **kwargs)
            if key:
                prof.count(name, key)
            return result
        finally:
            prof.exit()

    return framed


_run = _frame("sim.run")
_epoch_tick = _frame("hybrid.epoch")
_measure_phase = _frame("hybrid.measure")
_advance_phase = _frame("hybrid.advance")
_on_host_rx = _frame("obs.hook", "host_rx")
_record = _frame("obs.hook", "journey_emit")


def _step(link: tuple) -> float:
    """``Simulator.step`` in one ``sim.dispatch`` frame, counted by the kind
    of the heap call it is about to pop and the heap's depth before the pop.
    The hottest path: the minimum per event."""
    prof, sim, inner = link
    heap = sim._heap
    if not heap:
        return inner()
    when, _seq, fn, _args = heap[0]
    depth = len(heap)
    c = prof.counters.get("sim.dispatch")
    if c is None:
        c = prof.counters["sim.dispatch"] = {}
    kind = dispatch_kind(fn)
    c[kind] = c.get(kind, 0) + 1
    c["heap.depth.sum"] = c.get("heap.depth.sum", 0) + depth
    if depth > c.get("heap.depth.max", 0):
        c["heap.depth.max"] = depth
    if prof.sim_first_s is None:
        prof.sim_first_s = when
    prof.sim_last_s = when
    prof.dispatches += 1
    if prof.sample_every and prof.dispatches % prof.sample_every == 0:
        prof.samples.append({
            "sim_time_s": when,
            "dispatches": prof.dispatches,
            "heap_depth": depth,
            "cum_ns": dict(prof.cum_ns),
        })
    prof._stack.append(["sim.dispatch", prof._clock(), 0])
    try:
        return inner()
    finally:
        prof.exit()


def _lookup(link: tuple, packet: Any, in_port: int) -> Any:
    """``FlowTable.lookup``, counted by the tier that answered."""
    prof, table, inner = link
    prof.enter("flowtable.lookup")
    try:
        hits = table.cache_hits
        entry = inner(packet, in_port)
        tier = "path.cached" if table.cache_hits != hits else "path.indexed"
        prof.count("flowtable.lookup", tier)
        return entry
    finally:
        prof.exit()


def _solve(link: tuple, link_capacity: Any) -> Any:
    """``FluidSolver._solve``, counting the flows, rounds and entries it swept."""
    prof, solver, inner = link
    prof.enter("fluid.solve")
    try:
        solved = inner(link_capacity)
        prof.count("fluid.solve", "flows.solved", len(solver))
        prof.count("fluid.solve", "rounds", solved[1])
        prof.count("fluid.solve", "entries.swept", solved[2])
        return solved
    finally:
        prof.exit()


def _route(link: tuple, sw_name: str, counter: str, n: int) -> Any:
    """``MimicController._route``, counting ``n`` under ``counter``."""
    prof, _mic, inner = link
    prof.enter("controlplane.route")
    try:
        shard = inner(sw_name, counter, n)
        prof.count("controlplane.route", counter, n)
        return shard
    finally:
        prof.exit()


def _send(link: tuple, *args: Any) -> Any:
    """``MimicController._send`` (no frame): counts the mods a non-owning
    shard issued, by how far the call moved ``remote_installs``."""
    prof, mic, inner = link
    before = mic.remote_installs
    result = inner(*args)
    if mic.remote_installs != before:
        prof.count("controlplane.route", "mods.remote", mic.remote_installs - before)
    return result


class Profiler:
    """Frame-stack self-profiler the simulator's hook points drive.

    ``enter``/``exit`` bracket one subsystem frame; nesting is explicit
    (the instrumented call tree, not the Python stack).  ``count``
    accumulates named deterministic counters under a subsystem.  The
    brackets are :mod:`repro.obs.seam` hooks (``_step`` opens one
    ``sim.dispatch`` frame per event).

    ``sample_every=N`` (an int >= 0) records every Nth dispatch as a
    timeline sample (sim time, heap depth, cumulative ns per subsystem) for
    the Perfetto counter tracks; 0 (default) records none.

    ``clock`` is injectable for deterministic attribution tests; the
    default is :func:`time.perf_counter_ns`.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        sample_every: int = 0,
    ):
        if not (isinstance(sample_every, int) and sample_every >= 0):
            raise ValueError(f"sample_every {sample_every!r} must be an int >= 0")
        self._clock = clock
        self.sample_every = sample_every
        #: open frames: [name, enter_ns, child_ns] (child_ns = time already
        #: attributed to frames nested under this one)
        self._stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.cum_ns: dict[str, int] = {}
        #: subsystem -> {counter key -> value}
        self.counters: dict[str, dict[str, float]] = {}
        self.samples: list[dict] = []
        self.dispatches = 0
        self.sim_first_s: Optional[float] = None
        self.sim_last_s: Optional[float] = None
        self._t0_ns = self._clock()

    # -- frames ------------------------------------------------------------
    def enter(self, name: str) -> None:
        """Open one subsystem frame (must be balanced by :meth:`exit`)."""
        self._stack.append([name, self._clock(), 0])

    def exit(self) -> None:
        """Close the innermost frame, attributing self vs child time."""
        name, t_enter, child_ns = self._stack.pop()
        elapsed = self._clock() - t_enter
        self.calls[name] = self.calls.get(name, 0) + 1
        self.cum_ns[name] = self.cum_ns.get(name, 0) + elapsed
        self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - child_ns
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """``with prof.region("scenario.setup"):`` — a scoped frame."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, subsystem: str, key: str, n: float = 1) -> None:
        """Accumulate a named deterministic counter under ``subsystem``."""
        c = self.counters.get(subsystem)
        if c is None:
            c = self.counters[subsystem] = {}
        c[key] = c.get(key, 0) + n

    # -- wiring ------------------------------------------------------------
    def _wrap(self, name: str, hook: Callable[..., Any], objs: Iterable[Any]) -> None:
        """Bracket each ``obj.<name>`` with ``hook`` through the seam: a
        profiler already in the chain adds no frame, another profiler's link
        is spliced out (this one takes over), every other watcher's stays."""
        for obj in objs:
            owners = [link.__self__[0] for link in links(obj, name)]
            if self in owners:
                continue
            for owner in owners:
                if isinstance(owner, Profiler):
                    unwrap(owner, name, [obj])
            wrap(self, name, hook, [obj])

    def _hook_sim(self, sim: Any) -> None:
        """Bracket ``sim.run`` and open a ``sim.dispatch`` frame per ``sim.step``."""
        self._wrap("run", _run, [sim])
        self._wrap("step", _step, [sim])

    def hook(self, net: "Network") -> "Profiler":
        """Wire this profiler into a live network's instrumented points:
        the simulator's ``run`` and ``step``, every switch's flow-table
        lookup, and the observer's delivery hook, the journey recorder's
        sink and the hybrid engine (:meth:`hook_hybrid`) when attached.
        Safe to call again after attaching more layers."""
        self._hook_sim(net.sim)
        self._wrap("lookup", _lookup, [sw.table for sw in net.switches()])
        obs = net.observer
        if obs is not None:
            obs.profiler = self
            self._wrap("on_host_rx", _on_host_rx, [obs])
        if net.journey is not None:
            self._wrap("_record", _record, [net.journey])
        hybrid = getattr(net, "hybrid", None)
        if hybrid is not None:
            self.hook_hybrid(hybrid)
        return self

    def hook_hybrid(self, engine: Any) -> "Profiler":
        """Wire into a hybrid engine's epoch phases and its fluid solver."""
        self._wrap("_epoch_tick", _epoch_tick, [engine])
        self._wrap("_measure_phase", _measure_phase, [engine])
        self._wrap("_advance_phase", _advance_phase, [engine])
        # the ticker holds the bound method it was built with
        engine._ticker.fn = engine._epoch_tick
        self._wrap("_solve", _solve, [engine.solver])
        return self

    def hook_mic(self, mic: Any) -> "Profiler":
        """Wire into a Mimic Controller's shard routing.

        The network holds no reference to its MC, so :meth:`hook` cannot
        reach it; a profiled MIC run calls this too.
        """
        self._wrap("_route", _route, [mic])
        self._wrap("_send", _send, [mic])
        return self

    @classmethod
    def attach(
        cls,
        net: "Network",
        enabled: bool = True,
        sample_every: int = 0,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> Optional["Profiler"]:
        """Create a profiler and :meth:`hook` it; ``enabled=False`` → None.

        The disabled form exists so call sites can write
        ``prof = Profiler.attach(net, enabled=flag)`` and stay statically
        dead when the flag is off — no profiler object, no hooks, nothing.
        """
        if not enabled:
            return None
        return cls(clock=clock, sample_every=sample_every).hook(net)

    # -- reporting ---------------------------------------------------------
    def report(self) -> ProfileReport:
        """Reduce the window so far to a :class:`ProfileReport`.

        Open frames (e.g. called mid-run) contribute nothing until they
        exit; the window is profiler creation to now.
        """
        sim_span = 0.0
        if self.sim_first_s is not None and self.sim_last_s is not None:
            sim_span = self.sim_last_s - self.sim_first_s
        names = sorted(set(self.calls) | set(self.counters))
        subsystems = [
            {
                "name": name,
                "calls": self.calls.get(name, 0),
                "self_ns": self.self_ns.get(name, 0),
                "cum_ns": self.cum_ns.get(name, 0),
                "counters": dict(self.counters.get(name, {})),
            }
            for name in names
        ]
        return ProfileReport(
            window_ns=self._clock() - self._t0_ns,
            sim_span_s=sim_span,
            dispatches=self.dispatches,
            subsystems=subsystems,
            samples=list(self.samples),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Profiler frames={sorted(self.calls)} "
            f"dispatches={self.dispatches}>"
        )
