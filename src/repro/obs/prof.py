"""Deterministic self-profiling for the simulator's own hot paths.

Every prior obs layer instruments the *simulated network*; this one
instruments the *simulator* — where does a run's wall time actually go?
A :class:`Profiler` is wired into a contracted set of subsystems
(:data:`PROF_SUBSYSTEMS`, doc-diffed against ``docs/observability.md``)
through explicit enter/exit hooks: the event-loop dispatch, flow-table
classification, fluid re-solves, hybrid epoch phases and the obs/journey
hot-path hooks.  No ``sys.setprofile``, no tracing of arbitrary frames —
each hook is a single ``is None`` check that the disabled default leaves
statically dead, so an unprofiled run is byte-identical and pays ≤2%
(``benchmarks/bench_prof_overhead.py`` keeps that honest).

Attribution follows the classic self/cumulative split: a frame's
*cumulative* time is enter-to-exit wall-ns; its *self* time excludes the
nanoseconds attributed to nested frames (a ``fluid.solve`` inside a
``hybrid.epoch`` counts once, at the leaf).  Invocation counts and the
named per-subsystem counters (event kinds, lookup path split, solver path
split, heap depth) are **deterministic** for a seeded run — only the
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
        "repro.net.flowtable.FlowTable.lookup (swapped in by set_profiler)",
        "classifying one packet through the cache and tuple-space indexes",
        "`path.cached`, `path.indexed`",
    ),
    ProfSubsystem(
        "fluid.solve",
        "repro.net.fluid.FluidSolver.rates",
        "re-solving a dirtied max-min allocation (clean reads open no frame)",
        "`path.vectorized`, `path.scalar`, `flows.solved` (flow-set size "
        "summed over solves), `rounds` (water-filling rounds of the array "
        "loop summed over solves — `FluidSolver.rounds`, the work that "
        "explains the self time), `entries.swept` (flow×link entries, cap "
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
        "repro.net.hybrid.HybridEngine._epoch_tick (measure phase)",
        "refreshing peer reservations and debiting measured packet bytes "
        "from fluid-fillable capacity",
        "—",
    ),
    ProfSubsystem(
        "hybrid.advance",
        "repro.net.hybrid.HybridEngine._epoch_tick (advance phase)",
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
        "repro.core.controller.MimicController._send / on_packet_in",
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


class Profiler:
    """Frame-stack self-profiler the simulator's hook points drive.

    ``enter``/``exit`` bracket one subsystem frame; nesting is explicit
    (the instrumented call tree, not the Python stack).  ``count``
    accumulates named deterministic counters under a subsystem.  The
    simulator's per-event hooks (``_on_step``/``_on_step_end``) are the
    hottest path and do the minimum: one kind-count, heap-depth bookkeeping
    and a ``sim.dispatch`` frame.

    ``sample_every=N`` records every Nth dispatch as a timeline sample
    (sim time, heap depth, cumulative ns per subsystem) for the Perfetto
    counter tracks; 0 (default) records none.

    ``clock`` is injectable for deterministic attribution tests; the
    default is :func:`time.perf_counter_ns`.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        sample_every: int = 0,
    ):
        if sample_every < 0:
            raise ValueError(f"sample_every must be >= 0, got {sample_every}")
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

    # -- simulator dispatch hooks (the hottest path) -----------------------
    def _on_step(self, when: float, fn: Callable[..., None], heap_depth: int) -> None:
        """Called by ``Simulator.step`` before it runs the heap call ``fn``."""
        c = self.counters.get("sim.dispatch")
        if c is None:
            c = self.counters["sim.dispatch"] = {}
        kind = dispatch_kind(fn)
        c[kind] = c.get(kind, 0) + 1
        c["heap.depth.sum"] = c.get("heap.depth.sum", 0) + heap_depth
        if heap_depth > c.get("heap.depth.max", 0):
            c["heap.depth.max"] = heap_depth
        if self.sim_first_s is None:
            self.sim_first_s = when
        self.sim_last_s = when
        self.dispatches += 1
        if self.sample_every and self.dispatches % self.sample_every == 0:
            self.samples.append({
                "sim_time_s": when,
                "dispatches": self.dispatches,
                "heap_depth": heap_depth,
                "cum_ns": dict(self.cum_ns),
            })
        self._stack.append(["sim.dispatch", self._clock(), 0])

    def _on_step_end(self) -> None:
        """Called by ``Simulator.step`` after the heap call returned."""
        self.exit()

    # -- wiring ------------------------------------------------------------
    def hook(self, net: "Network") -> "Profiler":
        """Wire this profiler into a live network's instrumented points.

        Sets the ``_prof`` slot on the simulator, the hybrid engine and its
        solvers (when attached); swaps every switch's flow-table lookup
        (:meth:`FlowTable.set_profiler`) and the journey's sink for their
        bracketed variants, and wires the observer hooks (when attached).
        Safe to call again after attaching more layers.
        """
        net.sim._prof = self
        for sw in net.switches():
            sw.table.set_profiler(self)
            journey = getattr(sw, "journey", None)
            if journey is not None:
                journey.set_profiler(self)
        hybrid = getattr(net, "hybrid", None)
        if hybrid is not None:
            self.hook_hybrid(hybrid)
        for host in net.hosts():
            obs = getattr(host, "obs", None)
            if obs is not None and obs.profiler is not self:
                obs.profiler = self
                if obs.journey is not None:
                    obs.journey.set_profiler(self)
        return self

    def hook_hybrid(self, engine) -> "Profiler":
        """Wire into a hybrid engine and its fluid solver."""
        engine._prof = self
        engine.solver._prof = self
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
