"""Opt-in race/determinism sanitizer for the DES kernel.

The simulator's determinism contract is *one seed → one trace*, and it is
easy to break silently: two events scheduled for the same timestamp from
independent causal chains run in heap-insertion order, so a conflicting
write pair "works" until an unrelated change reorders the insertions.
:class:`SimSanitizer` attaches to a :class:`~repro.sim.engine.Simulator`
and watches for exactly those hazards while the simulation runs:

* **same-time races** — within one timestamp batch, conflicting accesses
  to a shared state object from two *different causal roots*.  An event
  scheduled with zero delay while another event is being processed
  inherits that event's root (its order is fixed by program order); two
  roots meeting at one timestamp have no happens-before edge, so their
  relative order is a heap accident.  Store FIFO put/get commute by
  design (arrival order at equal time *is* the heap order) and are only
  flagged under ``strict=True``; read-modify-write accesses
  (``mode="write"``, e.g. :class:`~repro.sim.resources.Resource` slot
  accounting) always conflict.
* **shared RNG streams** — one named stream obtained via ``sim.rng()``
  from two different modules.  Draw interleaving then couples the two
  call sites: adding a draw in one perturbs the other.  Each subsystem
  should own its stream (explicitly handing the ``Random`` object to a
  helper is fine and is not flagged — only the by-name lookup is).
* **teardown leaks** — via :meth:`check_teardown`: touched stores still
  holding items, :class:`~repro.core.collision.CollisionRegistry` owners
  whose channel is gone, and compiled cookies no live or parked flow
  accounts for.

The sanitizer only observes: it never mutates kernel state and draws no
randomness.  It watches from outside, the way the profiler brackets its
frames: :meth:`SimSanitizer.hook` wraps the simulator's ``step`` and
``rng`` through :mod:`repro.obs.seam` and taps its sequence counter, and
:meth:`~SimSanitizer.detach` splices its links out again.  An unsanitized
simulator carries no wrapper and no kernel method names the sanitizer;
only the shared-state probes in :mod:`repro.sim.resources` read the
``sim._sanitizer`` slot.  A sanitized run is byte-identical to a bare
one (``benchmarks/bench_sanitizer_overhead.py`` and the chaos scorecard
assert it).
"""

from __future__ import annotations

import itertools
import sys
import weakref
from dataclasses import dataclass
from typing import Any, Optional

from ..obs.seam import unwrap, wrap

__all__ = ["SanitizerFinding", "SimSanitizer"]

#: finding kinds, in the order report() groups them
FINDING_KINDS = (
    "same-time-race",
    "rng-stream-shared",
    "undrained-store",
    "leaked-owner",
    "unfreed-cookie",
)


@dataclass(frozen=True)
class SanitizerFinding:
    """One detected hazard."""

    kind: str
    time: float
    subject: str        # what raced/leaked: state label, stream, owner …
    detail: str

    def format(self) -> str:
        """One report line: time, kind, subject, detail."""
        return f"t={self.time:.6f} [{self.kind}] {self.subject}: {self.detail}"


def _step(link: tuple) -> float:
    """``Simulator.step`` under a sanitizer: close the batch when the clock
    moves, then run the popped call under its causal root."""
    san, sim, inner = link
    heap = sim._heap
    if not heap:
        return inner()
    when, seq = heap[0][0], heap[0][1]
    if when != san._batch_time:
        san._flush_batch()
        san._batch_time = when
    root = san._pending_root.pop(seq, None)
    # a zero delay keeps the scheduling event's root: program order fixes
    # it; every other call starts a fresh causal chain
    if root is not None and root[0] == when:
        san._current_root = root[1]
    else:
        san._current_root = next(san._root_counter)
    try:
        return inner()
    finally:
        san._current_root = None


def _rng(link: tuple, stream: str = "default") -> Any:
    """``Simulator.rng``, noting the module that asked for ``stream``."""
    link[0]._note_rng(stream)
    return link[2](stream)


class SimSanitizer:
    """Attachable hazard detector for one :class:`Simulator`.

    Use :meth:`attach` (or pass one to ``run_chaos(sanitizer=...)``);
    findings accumulate on :attr:`findings` and are never raised, so an
    instrumented run always completes and can be compared byte-for-byte
    against an uninstrumented one.
    """

    def __init__(self, strict: bool = False, max_findings: int = 200):
        if not (isinstance(max_findings, int) and max_findings >= 0):
            raise ValueError(f"max_findings {max_findings!r} must be an int >= 0")
        self.strict = strict
        self.max_findings = max_findings
        self.findings: list[SanitizerFinding] = []
        self.sim: Optional[Any] = None
        #: the counter the tap draws from
        self._counter: Optional[Any] = None
        # causal roots: heap seq -> (time scheduled at, the scheduling
        # event's root), for calls scheduled while an event ran
        self._root_counter = itertools.count(1)
        self._pending_root: dict[int, tuple[float, int]] = {}
        self._current_root: Optional[int] = None
        # one batch = all events processed at one timestamp
        self._batch_time: Optional[float] = None
        self._batch_accesses: dict[int, list[tuple[str, int]]] = {}
        self._reported_races: set[tuple[str, frozenset]] = set()
        # tracked shared state (weakly), labelled in first-touch order
        self._tracked: dict[int, tuple[weakref.ref, str]] = {}
        self._label_counter = itertools.count(1)
        # rng streams -> modules that looked them up by name
        self._rng_callers: dict[str, set[str]] = {}
        self._reported_streams: set[str] = set()

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def attach(cls, sim: Any, strict: bool = False) -> "SimSanitizer":
        """Create a sanitizer and :meth:`hook` it into ``sim``."""
        return cls(strict=strict).hook(sim)

    def hook(self, sim: Any) -> "SimSanitizer":
        """Watch ``sim``: wrap its ``step`` and ``rng`` (seam links) and tap
        its counter, which gives each sequence number drawn while an event
        runs that event's causal root.  A simulator that already has a
        sanitizer raises ``ValueError``."""
        if sim._sanitizer is not None:
            raise ValueError(
                f"{sim._sanitizer!r} is already attached to this simulator; "
                f"detach it first"
            )
        self.sim, self._counter = sim, sim._counter
        wrap(self, "step", _step, [sim])
        wrap(self, "rng", _rng, [sim])
        sim._counter = self._tap(sim._counter)
        sim._sanitizer = self
        return self

    def _tap(self, counter: Any) -> Any:
        """Draw from ``counter``, noting the running event's root per seq."""
        sim = self.sim
        for seq in counter:
            if self._current_root is not None:
                self._pending_root[seq] = (sim.now, self._current_root)
            yield seq

    def detach(self) -> None:
        """Unhook, flushing the open batch first: splice this sanitizer's
        links out of ``step`` and ``rng`` (every other watcher's stays) and
        give the counter back."""
        self._flush_batch()
        sim = self.sim
        if sim is not None:
            unwrap(self, "step", [sim])
            unwrap(self, "rng", [sim])
            sim._counter = self._counter
            sim._sanitizer = None
        self.sim = None

    def _emit(self, kind: str, time: float, subject: str, detail: str) -> None:
        if len(self.findings) < self.max_findings:
            self.findings.append(SanitizerFinding(kind, time, subject, detail))

    def _note_rng(self, stream: str) -> None:
        """Record the module asking for a named stream; flag sharing."""
        frame = sys._getframe(2)  # 0=_note_rng, 1=the rng link, 2=caller
        module = frame.f_globals.get("__name__", "<unknown>")
        callers = self._rng_callers.setdefault(stream, set())
        callers.add(module)
        if len(callers) > 1 and stream not in self._reported_streams:
            self._reported_streams.add(stream)
            now = self.sim.now if self.sim is not None else 0.0
            self._emit(
                "rng-stream-shared", now, stream,
                f"stream requested by name from {len(callers)} modules "
                f"({', '.join(sorted(callers))}); give each call site its "
                f"own named child stream or pass the Random object "
                f"explicitly",
            )

    # -- shared-state hooks ---------------------------------------------
    def touch(self, state: Any, mode: str, label: Optional[str] = None) -> None:
        """Record one access to a shared object during event processing.

        ``mode`` is one of ``"read"``, ``"append"``/``"take"`` (FIFO ops
        that commute at equal time) or ``"write"`` (read-modify-write).
        Touches outside event processing (setup/teardown code) are
        ignored — there is no concurrent peer to race with.
        """
        if self._current_root is None:
            return
        key = id(state)
        if key not in self._tracked:
            name = label or f"{type(state).__name__}#{next(self._label_counter)}"
            self._tracked[key] = (weakref.ref(state), name)
        self._batch_accesses.setdefault(key, []).append(
            (mode, self._current_root)
        )

    def _conflicts(self, accesses: list[tuple[str, int]]) -> Optional[set[str]]:
        """The conflicting mode set if this batch's accesses race, else None."""
        roots = {r for _m, r in accesses}
        if len(roots) < 2:
            return None  # single causal chain: program-ordered
        writes = {r for m, r in accesses if m == "write"}
        others = roots - writes
        if writes and (len(writes) > 1 or others):
            return {m for m, _r in accesses}
        if self.strict:
            non_read = {r for m, r in accesses if m != "read"}
            if len(non_read) > 1:
                return {m for m, _r in accesses}
        return None

    def _flush_batch(self) -> None:
        """Analyze the finished timestamp batch for order-dependent pairs."""
        when = self._batch_time
        for key, accesses in self._batch_accesses.items():
            modes = self._conflicts(accesses)
            if modes is None:
                continue
            _ref, name = self._tracked[key]
            sig = (name, frozenset(modes))
            if sig in self._reported_races:
                continue
            self._reported_races.add(sig)
            self._emit(
                "same-time-race", when if when is not None else 0.0, name,
                f"accessed ({', '.join(sorted(modes))}) by "
                f"{len({r for _m, r in accesses})} independent event chains "
                f"at the same timestamp; their order is a heap accident — "
                f"serialize via an explicit event or split the timestamp",
            )
        self._batch_accesses.clear()

    # -- teardown -------------------------------------------------------
    def check_teardown(self, mic: Any = None, stores: bool = True) -> None:
        """End-of-run leak checks; call after the simulation settles.

        ``mic`` is a :class:`~repro.core.controller.MimicController`; when
        given, its compiled-cookie table and collision registry are
        audited against the live channels.  ``stores=False`` skips the
        undrained-queue scan (for scenarios that legitimately stop with
        traffic in flight).
        """
        self._flush_batch()
        now = self.sim.now if self.sim is not None else 0.0
        if stores:
            for ref, name in self._tracked.values():
                obj = ref()
                if obj is None:
                    continue
                try:
                    pending = len(obj)
                except TypeError:
                    continue
                if pending:
                    self._emit(
                        "undrained-store", now, name,
                        f"{pending} item(s) left queued at teardown with no "
                        f"consumer having drained them",
                    )
        if mic is None:
            return
        live = set(mic.channels)
        accounted: set[int] = set()
        for ch_id, channel in mic.channels.items():
            accounted.update(plan.cookie for plan in channel.flows)
        # A parked flow belongs to a live channel, so it is accounted too.
        for cookie in mic.compiled:
            if cookie in accounted:
                continue
            self._emit(
                "unfreed-cookie", now, f"c{cookie:#x}",
                "compiled rules retained for a cookie no live or parked "
                "flow owns — teardown must pop it",
            )
        for owner in mic.planner.registry.owners():
            ch_part = owner.split("/", 1)[0]
            if ch_part.startswith("ch"):
                try:
                    ch_id = int(ch_part[2:])
                except ValueError:
                    continue
                if ch_id not in live:
                    self._emit(
                        "leaked-owner", now, owner,
                        "collision-registry keys still held by a torn-down "
                        "channel — release_owner() was skipped",
                    )

    # -- reporting ------------------------------------------------------
    def report(self) -> str:
        """Human-readable findings list (kind-grouped), or a clean line."""
        self._flush_batch()
        if not self.findings:
            return "sanitizer: clean"
        order = {k: i for i, k in enumerate(FINDING_KINDS)}
        lines = [
            f.format()
            for f in sorted(self.findings,
                            key=lambda f: (order.get(f.kind, 99), f.time))
        ]
        lines.append(f"sanitizer: {len(self.findings)} finding(s)")
        return "\n".join(lines)

    def kinds(self) -> set[str]:
        """The distinct finding kinds seen (flushes the open batch)."""
        self._flush_batch()
        return {f.kind for f in self.findings}
