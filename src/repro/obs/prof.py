"""Deterministic self-profiling for the simulator's own hot paths.

Every prior obs layer instruments the *simulated network*; this one
instruments the *simulator* — where does a run's wall time actually go?
A :class:`Profiler` is wired into a contracted set of subsystems
(:data:`PROF_SUBSYSTEMS`, doc-diffed against ``docs/observability.md``):
the event-loop dispatch, flow-table classification, fluid re-solves,
hybrid epoch phases, the MC's shard routing and the obs/journey hot-path
hooks.  No ``sys.setprofile``, no tracing of arbitrary frames.  Everything
is bracketed from here: :meth:`Profiler.hook` (and :meth:`~Profiler.hook_hybrid`,
:meth:`~Profiler.hook_mic`) installs a wrapper around each instrumented
method on the hooked instance — the simulator's ``step`` included — so the
instrumented modules never see the profiler.  An unprofiled run carries no
wrapper at all: it is byte-identical and pays nothing
(``benchmarks/bench_prof_overhead.py`` keeps that honest).

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


# What one bracketed call counts: ``tally(args, result, moved)`` -> (key, n)
# pairs (see Profiler._bracket).
def _lookup_path(args: tuple, entry: Any, hits: int) -> tuple:
    return (("path.cached" if hits else "path.indexed", 1),)


def _host_rx(args: tuple, result: Any, moved: int) -> tuple:
    return (("host_rx", 1),)


def _journey_emit(args: tuple, result: Any, moved: int) -> tuple:
    return (("journey_emit", 1),)


def _routed(args: tuple, shard: Any, moved: int) -> tuple:
    # MimicController._route(sw_name, counter, n)
    return ((args[1], args[2]),)


def _remote(args: tuple, result: Any, remote: int) -> tuple:
    # mods issued by a non-owning shard: MimicController._send moved
    # remote_installs by that many
    return (("mods.remote", remote),) if remote else ()


class Profiler:
    """Frame-stack self-profiler the simulator's hook points drive.

    ``enter``/``exit`` bracket one subsystem frame; nesting is explicit
    (the instrumented call tree, not the Python stack).  ``count``
    accumulates named deterministic counters under a subsystem.  The
    per-event hooks the ``step`` wrapper calls (``_on_step``/``_on_step_end``)
    are the hottest path and do the minimum: one kind-count, heap-depth
    bookkeeping and a ``sim.dispatch`` frame.

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
        """Called before ``Simulator.step`` pops the heap call ``fn``."""
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
        """Called after ``Simulator.step`` returned."""
        self.exit()

    # -- wiring ------------------------------------------------------------
    def _bracket(
        self,
        obj: Any,
        method: str,
        frame: str,
        tally: Optional[Callable[[tuple, Any, int], Iterable[tuple[str, float]]]] = None,
        watch: str = "",
        opens: bool = True,
    ) -> None:
        """Install ``obj.<method>`` as its class's method bracketed in ``frame``.

        The wrapper is an instance attribute, so every call that looks the
        method up on ``obj`` runs it; the class and every other instance
        are untouched.  ``tally(args, result, moved)`` returns the
        ``(key, n)`` pairs one call counts under ``frame``, where ``moved``
        is how far the call moved the counter attribute ``obj.<watch>``
        (0 without ``watch``).  ``opens=False`` counts without opening the
        frame.  Bracketing again replaces the wrapper, so the same profiler
        adds no second frame and another profiler takes over.
        """
        inner = getattr(type(obj), method).__get__(obj)
        enter, leave, count = self.enter, self.exit, self.count

        def bracketed(*args: Any, **kwargs: Any) -> Any:
            if opens:
                enter(frame)
            try:
                before = getattr(obj, watch) if watch else 0
                result = inner(*args, **kwargs)
                if tally is not None:
                    moved = getattr(obj, watch) - before if watch else 0
                    for key, n in tally(args, result, moved):
                        count(frame, key, n)
                return result
            finally:
                if opens:
                    leave()

        setattr(obj, method, bracketed)

    def _hook_sim(self, sim: Any) -> None:
        """Bracket ``sim.run`` and wrap ``sim.step`` in the dispatch hooks.

        The ``step`` wrapper reads the next heap entry and the heap's depth
        before the inner ``step`` pops it.  A profiler's wrapper on top is
        replaced, as :meth:`_bracket` replaces one; any other wrapper (the
        sanitizer's) is kept inside the new one, and one this profiler set
        below it already counts.
        """
        self._bracket(sim, "run", "sim.run")
        inner = link = sim.step
        while hasattr(link, "__wrapped__"):
            if getattr(link, "profiler", None) is self:
                return
            link = link.__wrapped__
        if isinstance(getattr(inner, "profiler", None), Profiler):
            inner = inner.__wrapped__
        on_step, on_step_end = self._on_step, self._on_step_end

        def step() -> float:
            heap = sim._heap
            if not heap:
                return inner()
            head = heap[0]
            on_step(head[0], head[2], len(heap))
            try:
                return inner()
            finally:
                on_step_end()

        step.__wrapped__ = inner  # type: ignore[attr-defined]
        step.profiler = self  # type: ignore[attr-defined]
        sim.step = step

    def hook(self, net: "Network") -> "Profiler":
        """Wire this profiler into a live network's instrumented points.

        Wraps the simulator's ``step`` and brackets ``sim.run``, every
        switch's flow-table lookup, the journey recorder's sink and the
        observer's delivery hook (when attached), and the hybrid engine
        (:meth:`hook_hybrid`, when attached).  Safe to call again after
        attaching more layers.
        """
        self._hook_sim(net.sim)
        for sw in net.switches():
            self._bracket(
                sw.table, "lookup", "flowtable.lookup", _lookup_path, "cache_hits"
            )
        obs = net.observer
        if obs is not None:
            obs.profiler = self
            self._bracket(obs, "on_host_rx", "obs.hook", _host_rx)
        if net.journey is not None:
            self._bracket(net.journey, "_record", "obs.hook", _journey_emit)
        hybrid = getattr(net, "hybrid", None)
        if hybrid is not None:
            self.hook_hybrid(hybrid)
        return self

    def hook_hybrid(self, engine: Any) -> "Profiler":
        """Wire into a hybrid engine's epoch phases and its fluid solver."""
        self._bracket(engine, "_epoch_tick", "hybrid.epoch")
        self._bracket(engine, "_measure_phase", "hybrid.measure")
        self._bracket(engine, "_advance_phase", "hybrid.advance")
        # the ticker holds the bound method it was built with
        engine._ticker.fn = engine._epoch_tick
        solver = engine.solver
        self._bracket(
            solver, "_solve", "fluid.solve",
            lambda args, solved, _: (
                ("flows.solved", len(solver)),
                ("rounds", solved[1]),
                ("entries.swept", solved[2]),
            ),
        )
        return self

    def hook_mic(self, mic: Any) -> "Profiler":
        """Wire into a Mimic Controller's shard routing.

        The network holds no reference to its MC, so :meth:`hook` cannot
        reach it; a profiled MIC run calls this too.
        """
        self._bracket(mic, "_route", "controlplane.route", _routed)
        self._bracket(
            mic, "_send", "controlplane.route", _remote, "remote_installs",
            opens=False,
        )
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
