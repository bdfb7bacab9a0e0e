"""The event kernel as it was before its heap held plain calls: the oracle.

Kept verbatim below the marker line (only this docstring and the sanitizer
adapter at the end are new): every heap entry is an :class:`Event`, and
``call_later`` / ``call_at`` build a :class:`Callback` event per call.
``tests/sim/test_kernel_oracle.py`` runs random programs on this kernel and
on :mod:`repro.sim.engine` and requires the same ``(time, label)`` dispatch
sequence, the same effects and the same sanitizer findings.

Its hooks hand the sanitizer and the profiler the event itself, so
:class:`IdKeyedSanitizer` keys causal roots by ``id(event)``, as the
sanitizer did when this kernel was live.
"""

# ---- the replaced kernel, verbatim -------------------------------------

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

__all__ = [
    "Simulator",
    "Event",
    "Callback",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Periodic",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class Interrupt(Exception):
    """Thrown into a :class:`Process` by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence with callbacks and an optional value.

    An event starts *pending*, becomes *triggered* once scheduled and
    *processed* after its callbacks ran.  Processes wait on events by
    yielding them; plain callbacks can be attached via :attr:`callbacks`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "_scheduled")

    #: sentinel for "no value yet"
    _PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._processed = False
        self._scheduled = False

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True after all callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False if the event failed (carries an exception as its value)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (raises if not yet triggered)."""
        if self._value is Event._PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire carrying an exception."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._value = exc
        self._ok = False
        self.sim._schedule(self, delay)
        return self

    def _run_callbacks(self) -> None:
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)
        self._processed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Callback(Event):
    """A plain function call on the heap: ``fn(*args)`` at a scheduled time.

    What :meth:`Simulator.call_later` / :meth:`Simulator.call_at` return.
    The call *is* the event — no wrapper closure, no ``succeed`` round trip —
    yet it stays a full :class:`Event`: it is born triggered (value ``None``),
    a process may yield it, and callbacks appended to it run after ``fn``.
    The self-profiler reports these dispatches as ``event.Callback``.
    """

    __slots__ = ("fn", "args")

    def __init__(self, sim: "Simulator", fn: Callable[..., None], args: tuple):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._processed = False
        self._scheduled = True
        self.fn = fn
        self.args = args

    def _run_callbacks(self) -> None:
        self.fn(*self.args)
        if self.callbacks:  # somebody waited on the call: the rare case
            super()._run_callbacks()
        else:
            self._processed = True


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._ok = True
        sim._schedule(self, delay)


class AllOf(Event):
    """Fires once *all* child events have fired; value is a list of values."""

    __slots__ = ("_remaining", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            if ev.processed:
                self._child_done(ev)
            else:
                ev.callbacks.append(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Fires when the *first* child event fires; value is ``(event, value)``."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf needs at least one event")
        for ev in self._events:
            if ev.triggered:
                self._child_done(ev)
                break
            ev.callbacks.append(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed((ev, ev.value))


class Periodic:
    """A batched recurring callback: one heap event per period, not per item.

    Rate-based subsystems (the hybrid fluid engine advancing thousands of
    flows, samplers, housekeeping sweeps) must not cost one event per managed
    item.  A ``Periodic`` keeps exactly one pending event on the heap and
    invokes ``fn()`` every ``period_s`` simulated seconds; the callback
    amortizes arbitrarily much batched work over that single event.

    The ticker holds the heap non-empty while running, so a bare ``run()``
    (run-until-drained) will not return until :meth:`stop` is called — the
    callback itself may call ``stop()`` (e.g. when its batch empties), which
    also cancels the in-flight wakeup.
    """

    __slots__ = ("sim", "period_s", "fn", "_running", "_epoch")

    def __init__(self, sim: "Simulator", period_s: float, fn: Callable[[], None]):
        if period_s <= 0:
            raise SimulationError(f"period must be positive, got {period_s!r}")
        self.sim = sim
        self.period_s = period_s
        self.fn = fn
        self._running = False
        #: generation counter — bumping it orphans any in-flight wakeup
        self._epoch = 0

    @property
    def running(self) -> bool:
        """True while ticks are scheduled."""
        return self._running

    def start(self) -> "Periodic":
        """Begin ticking; the first callback fires one period from now."""
        if not self._running:
            self._running = True
            self._epoch += 1
            self._schedule(self._epoch)
        return self

    def stop(self) -> None:
        """Cancel ticking (an in-flight wakeup becomes a no-op)."""
        self._running = False
        self._epoch += 1

    def _schedule(self, epoch: int) -> None:
        self.sim.call_later(self.period_s, self._tick, epoch)

    def _tick(self, epoch: int) -> None:
        if not self._running or epoch != self._epoch:
            return  # stopped (or restarted) since this wakeup was scheduled
        self.fn()
        if self._running and epoch == self._epoch:
            self._schedule(epoch)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine-style process.

    Wraps a generator that yields :class:`Event` objects.  The process itself
    is an event that fires (with the generator's return value) when the
    generator finishes, so processes can wait on each other.
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: resume the generator at the current simulation time.
        boot = Event(sim)
        boot.succeed()
        boot.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the process generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None and not target.processed:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        kick = Event(self.sim)
        kick._value = Interrupt(cause)
        kick._ok = False
        kick.callbacks.append(self._resume)
        self.sim._schedule(kick, 0.0)

    # ------------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        try:
            if trigger.ok:
                target = self._gen.send(trigger._value)
            else:
                target = self._gen.throw(trigger._value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except Interrupt as exc:
            # Uncaught interrupt terminates the process with failure.
            if not self.triggered:
                self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        self._waiting_on = target
        if target.processed:
            # Already fired: resume on the next kernel step at the same time.
            kick = Event(self.sim)
            kick._value = target._value
            kick._ok = target._ok
            kick.callbacks.append(self._resume)
            self.sim._schedule(kick, 0.0)
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Simulator:
    """Owner of the event heap and the simulation clock.

    Typical use::

        sim = Simulator(seed=7)

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"

    ``now`` is the current simulation time in seconds: a plain instance
    attribute (every packet hop reads it several times), read-only for
    everyone but the kernel — only :meth:`step` and the horizon clamp at the
    end of :meth:`run` write it.
    """

    def __init__(self, seed: int = 0):
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self.seed = seed
        self._rng_streams: dict[str, Any] = {}
        self._ids: dict[str, Iterator[int]] = {}
        #: frame id -> message object whose bytes are on the simulated wire
        #: (repro.transport.framing parks it at send, the receiver claims it)
        self.frames_in_flight: dict[int, Any] = {}
        #: opt-in hazard detector (repro.analysis.sanitizer); None = off,
        #: and every hook below is a statically-dead branch.
        self._sanitizer: Optional[Any] = None
        #: opt-in self-profiler (repro.obs.prof.Profiler); None = off, same
        #: statically-dead-hook contract as the sanitizer.
        self._prof: Optional[Any] = None

    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if event._scheduled:
            raise SimulationError("event already scheduled")
        event._scheduled = True
        if self._sanitizer is not None:
            self._sanitizer._on_schedule(event, delay)
        heapq.heappush(self._heap, (self.now + delay, next(self._counter), event))

    # -- public scheduling API -----------------------------------------
    def event(self) -> Event:
        """A fresh pending event, to be succeeded/failed by the caller."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Start a generator as a process; returns the process event."""
        return Process(self, gen, name=name)

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Callback:
        """Run ``fn(*args)`` ``delay`` seconds from now."""
        # `_schedule`, spelled out: this is the kernel's most frequent call and
        # a `Callback` is born scheduled.
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        ev = Callback(self, fn, args)
        if self._sanitizer is not None:
            self._sanitizer._on_schedule(ev, delay)
        heapq.heappush(self._heap, (self.now + delay, next(self._counter), ev))
        return ev

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> Callback:
        """Run ``fn(*args)`` at absolute time ``when``."""
        # `call_later(when - now, ...)`, spelled out (one per link delivery):
        # the heap time stays `now + (when - now)`, bit for bit.
        now = self.now
        delay = when - now
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        ev = Callback(self, fn, args)
        if self._sanitizer is not None:
            self._sanitizer._on_schedule(ev, delay)
        heapq.heappush(self._heap, (now + delay, next(self._counter), ev))
        return ev

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires once all given events fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires with the first of the given events."""
        return AnyOf(self, events)

    # -- rng streams ----------------------------------------------------
    def rng(self, stream: str = "default"):
        """A named, deterministically-seeded ``random.Random`` stream.

        Separate subsystems should use separate streams so that adding
        randomness in one place does not perturb another.
        """
        import random as _random
        import zlib

        if self._sanitizer is not None:
            self._sanitizer._note_rng(stream)
        if stream not in self._rng_streams:
            mix = zlib.crc32(stream.encode()) ^ (self.seed * 0x9E3779B1 & 0xFFFFFFFF)
            self._rng_streams[stream] = _random.Random(mix)
        return self._rng_streams[stream]

    # -- id namespaces -------------------------------------------------
    def ids(self, name: str, start: int = 1) -> Iterator[int]:
        """The named id mint of this simulator, created on first request.

        Identity (packet uids, flow-entry ids, channel / cookie / group ids,
        …) belongs to the deployment: every holder asks once for its
        namespace and draws with ``next()``, so two simulators in one process
        never see each other's ids.  ``start`` counts only for the request
        that creates the mint.
        """
        mint = self._ids.get(name)
        if mint is None:
            mint = self._ids[name] = itertools.count(start)
        return mint

    # -- main loop -------------------------------------------------------
    def step(self) -> float:
        """Process the next event; returns its time."""
        if not self._heap:
            raise SimulationError("no more events")
        san = self._sanitizer
        prof = self._prof
        if san is None and prof is None:
            when, _seq, event = heapq.heappop(self._heap)
            self.now = when
            event._run_callbacks()
            return when
        depth = len(self._heap)
        when, _seq, event = heapq.heappop(self._heap)
        self.now = when
        if prof is not None:
            prof._on_step(when, event, depth)
        if san is not None:
            san._on_step(when, event)
        try:
            event._run_callbacks()
        finally:
            if san is not None:
                san._on_step_end()
            if prof is not None:
                prof._on_step_end()
        return when

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float | Event] = None, max_events: int = 50_000_000) -> Any:
        """Run until the heap drains, time ``until`` passes, or an event fires.

        ``until`` may be a float (absolute time) or an :class:`Event` (run
        until it is processed, returning its value).  ``max_events`` guards
        against runaway simulations.
        """
        prof = self._prof
        if prof is None:
            return self._run(until, max_events)
        prof.enter("sim.run")
        try:
            return self._run(until, max_events)
        finally:
            prof.exit()

    def _run(self, until: Optional[float | Event], max_events: int) -> Any:
        steps = 0
        if isinstance(until, Event):
            target = until
            while not target.processed:
                if not self._heap:
                    raise SimulationError(
                        "event heap drained before the awaited event fired"
                    )
                self.step()
                steps += 1
                if steps > max_events:
                    raise SimulationError("max_events exceeded")
            if not target.ok:
                raise target.value
            return target.value

        horizon = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
            steps += 1
            if steps > max_events:
                raise SimulationError("max_events exceeded")
        if horizon != float("inf"):
            self.now = max(self.now, horizon)
        return None


# ---- the sanitizer's hooks as they were for this kernel ----------------
from repro.analysis.sanitizer import SimSanitizer  # noqa: E402


class IdKeyedSanitizer(SimSanitizer):
    """:class:`SimSanitizer` with its causal roots keyed by ``id(event)``."""

    def _on_schedule(self, event: Any, delay: float) -> None:
        if delay == 0 and self._current_root is not None:
            self._pending_root[id(event)] = self._current_root
        else:
            self._pending_root[id(event)] = next(self._root_counter)

    def _on_step(self, when: float, event: Any) -> None:
        if when != self._batch_time:
            self._flush_batch()
            self._batch_time = when
        root = self._pending_root.pop(id(event), None)
        if root is None:
            root = next(self._root_counter)
        self._current_root = root
