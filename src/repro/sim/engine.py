"""Discrete-event simulation core.

This module implements a small but complete discrete-event simulation (DES)
kernel in the style of SimPy: a :class:`Simulator` owns a time-ordered heap
of calls, :class:`Event` objects carry callbacks and an optional value, and
:class:`Process` wraps a Python generator that advances by yielding events.

The entire network substrate (links, switches, hosts, controllers, transport
protocols) is built on top of this kernel, so simulated time is the *only*
clock in the system — results are fully deterministic for a given seed.

Times are floats in **seconds**.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

__all__ = [
    "Simulator",
    "Event",
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


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # `not >=` refuses nan too, which `<` lets through; a nan heap
        # entry would stop run() silently
        if not delay >= 0:
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
    """A batched recurring callback: one heap call per period, not per item.

    Rate-based subsystems (the hybrid fluid engine advancing thousands of
    flows, samplers, housekeeping sweeps) must not cost one event per managed
    item.  A ``Periodic`` keeps exactly one pending call on the heap and
    invokes ``fn()`` every ``period_s`` simulated seconds; the callback
    amortizes arbitrarily much batched work over that single call.

    The ticker holds the heap non-empty while running, so a bare ``run()``
    (run-until-drained) will not return until :meth:`stop` is called — the
    callback itself may call ``stop()`` (e.g. when its batch empties), which
    also cancels the in-flight wakeup.
    """

    __slots__ = ("sim", "period_s", "fn", "_running", "_epoch")

    def __init__(self, sim: "Simulator", period_s: float, fn: Callable[[], None]):
        if not period_s > 0:  # nan included
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

    Every heap entry is a plain call, ``(when, seq, fn, args)``, ordered by
    time and then by ``seq``, the schedule order.  :meth:`call_later` and
    :meth:`call_at` push one such tuple and return nothing; an event that is
    succeeded, failed or timed out goes on the heap as a call of its own
    ``_run_callbacks``.  A process that wants to wait yields an event
    (``sim.timeout(delay)``), never a call.
    """

    def __init__(self, seed: int = 0):
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self.seed = seed
        self._rng_streams: dict[str, Any] = {}
        self._ids: dict[str, Iterator[int]] = {}
        #: frame id -> message object whose bytes are on the simulated wire
        #: (repro.transport.framing parks it at send, the receiver claims it)
        self.frames_in_flight: dict[int, Any] = {}
        #: the attached hazard detector (repro.analysis.sanitizer), read only
        #: by the shared-state probes in repro.sim.resources; None = off.
        #: The sanitizer and the profiler wrap ``step`` (and the sanitizer
        #: ``rng`` and ``_counter``) on the instance: no method here
        #: knows a watcher exists.
        self._sanitizer: Optional[Any] = None

    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if not delay >= 0:  # nan included
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if event._scheduled:
            raise SimulationError("event already scheduled")
        event._scheduled = True
        seq = next(self._counter)
        heapq.heappush(self._heap, (self.now + delay, seq, event._run_callbacks, ()))

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

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now.

        The call is not an event: nothing can wait on it.  A process that
        needs to wait yields ``sim.timeout(delay)`` instead.
        """
        if not delay >= 0:  # nan included
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._counter), fn, args))

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``when``."""
        # `call_later(when - now, ...)`, spelled out (one per link delivery):
        # the heap time stays `now + (when - now)`, bit for bit.
        now = self.now
        delay = when - now
        if not delay >= 0:  # nan included
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (now + delay, next(self._counter), fn, args))

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
        if stream not in self._rng_streams:
            self._rng_streams[stream] = self.fresh_rng(stream)
        return self._rng_streams[stream]

    def fresh_rng(self, stream: str):
        """A new stream seeded as :meth:`rng` seeds ``stream``, kept only by
        the caller: one named after a flow or a channel goes with it."""
        import random as _random
        import zlib

        mix = zlib.crc32(stream.encode()) ^ (self.seed * 0x9E3779B1 & 0xFFFFFFFF)
        return _random.Random(mix)

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
        """Run the next call on the heap; returns its time."""
        if not self._heap:
            raise SimulationError("no more events")
        when, _seq, fn, args = heapq.heappop(self._heap)
        self.now = when
        fn(*args)
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
