"""The heap of plain calls against the event kernel it replaced.

Hypothesis draws random programs — ``call_later``, ``call_at``, timeouts,
events that succeed or fail (now or later), processes that yield timeouts,
pending and already-processed events, ``AllOf`` / ``AnyOf`` and each other,
``interrupt``, zero delays and equal-time ties — and runs each one on
:mod:`repro.sim.engine` and on the oracle kernel in ``kernel_oracle.py``,
where every ``call_later`` is a ``Callback`` event.  Both must dispatch the
same ``(time, label, heap depth)`` sequence, have the same effects and give
the same sanitizer findings; the plain kernel must have the same effects
with its hooks off as on.
"""

import collections
import itertools

import kernel_oracle as oracle
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import SimSanitizer
from repro.obs.prof import Profiler, dispatch_kind
from repro.sim import engine

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
MODES = st.sampled_from(["read", "append", "take", "write"])
PICK = st.integers(0, 7)

WAITS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("event"), PICK),
    st.tuples(st.just("processed")),
    st.tuples(st.just("join"), PICK),
    st.tuples(st.sampled_from(["all_of", "any_of"]), DELAYS, DELAYS),
    st.tuples(st.sampled_from(["all_of_events", "any_of_events"]), PICK, PICK),
    st.tuples(st.just("call"), DELAYS),  # schedules a call, yields nothing
)
LEAVES = st.one_of(
    st.tuples(st.just("gate")),
    st.tuples(st.just("fire"), PICK, st.booleans()),
    st.tuples(st.just("interrupt"), PICK),
    st.tuples(st.just("process"), st.booleans(), st.lists(WAITS, max_size=4)),
)


def _scheduling(children):
    body = st.tuples(st.integers(0, 2), MODES, st.lists(children, max_size=3))
    return st.one_of(
        st.tuples(st.sampled_from(["call_later", "call_at", "timeout"]), DELAYS, body),
        st.tuples(st.just("event"), DELAYS, st.booleans(), body),
    )


PROGRAMS = st.lists(
    st.recursive(LEAVES, lambda children: st.one_of(LEAVES, _scheduling(children)),
                 max_leaves=12),
    min_size=1, max_size=6,
)


def _plain(value):
    """A kernel-independent rendering of a value a process or event saw."""
    if isinstance(value, (engine.Event, oracle.Event)):
        return "event"
    if isinstance(value, BaseException):
        return (type(value).__name__, _plain(value.args))
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    return value


#: what either kernel throws into a waiting process
_THROWN = (engine.Interrupt, oracle.Interrupt, RuntimeError)


class _Shared:
    """Weak-referenceable stand-in for a piece of shared simulation state."""


class _Dispatches(Profiler):
    """The real profiler, also logging each dispatch as (time, label, depth)."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def _on_step(self, when, fn, heap_depth):
        self.seen.append((when, dispatch_kind(fn), heap_depth))
        super()._on_step(when, fn, heap_depth)


class _OracleDispatches:
    """The oracle kernel's profiler hooks: they are handed the event."""

    def __init__(self):
        self.seen = []

    def _on_step(self, when, event, heap_depth):
        self.seen.append((when, "event." + type(event).__name__, heap_depth))

    def _on_step_end(self):
        pass

    def enter(self, name):
        pass

    def exit(self):
        pass


class _Run:
    """One program, interpreted on one kernel."""

    def __init__(self, kernel, program, hooks: bool, strict: bool = False):
        self.sim = sim = kernel.Simulator(seed=3)
        self.log = []
        self.tags = itertools.count()
        self.events = []
        self.procs = []
        self.states = [_Shared() for _ in range(3)]
        self.san = self.prof = None
        if hooks:
            if kernel is engine:
                self.san = SimSanitizer.attach(sim, strict=strict)
                self.prof = sim._prof = _Dispatches()
            else:
                self.san = oracle.IdKeyedSanitizer.attach(sim, strict=strict)
                self.prof = sim._prof = _OracleDispatches()
        for action in program:
            self.do(action)
        try:
            sim.run()
        except RuntimeError as exc:  # a failed event a process did not catch
            self.log.append(("crash", sim.now, _plain(exc)))
        self.findings = []
        if self.san is not None:
            self.san.detach()
            self.findings = self.san.findings

    def do(self, action) -> None:
        sim = self.sim
        kind, tag = action[0], next(self.tags)
        self.log.append((sim.now, kind, tag))
        if kind == "call_later":
            sim.call_later(action[1], self.body, tag, action[2])
        elif kind == "call_at":
            sim.call_at(sim.now + action[1], self.body, tag, action[2])
        elif kind == "timeout":
            sim.timeout(action[1], tag).callbacks.append(
                lambda ev, body=action[2]: self.body(ev.value, body))
        elif kind == "event":
            ev = sim.event()
            ev.callbacks.append(lambda ev, body=action[3]: self.body(tag, body))
            self.events.append(ev)
            if action[2]:
                ev.succeed(tag, delay=action[1])
            else:
                ev.fail(RuntimeError(tag), delay=action[1])
        elif kind == "gate":
            self.events.append(sim.event())
        elif kind == "fire":
            if self.events:
                ev = self.events[action[1] % len(self.events)]
                if not ev.triggered:
                    if action[2]:
                        ev.succeed(tag)
                    else:
                        ev.fail(RuntimeError(tag))
        elif kind == "process":
            self.procs.append(sim.process(
                self.process(tag, action[1], action[2]), name=f"p{tag}"))
        elif kind == "interrupt":
            if self.procs:
                proc = self.procs[action[1] % len(self.procs)]
                if proc.is_alive:
                    proc.interrupt(tag)

    def body(self, tag, body) -> None:
        state, mode, children = body
        self.log.append((self.sim.now, "run", tag))
        if self.san is not None:
            self.san.touch(self.states[state], mode, label=f"s{state}")
        for child in children:
            self.do(child)

    def _pick(self, pool, i):
        return pool[i % len(pool)] if pool else self.sim.timeout(0.0)

    def _target(self, wait):
        sim, kind = self.sim, wait[0]
        if kind == "timeout":
            return sim.timeout(wait[1], "t")
        if kind == "event":
            return self._pick(self.events, wait[1])
        if kind == "processed":
            done = [ev for ev in self.events + self.procs if ev.processed]
            return done[0] if done else sim.timeout(0.0)
        if kind == "join":
            return self._pick(self.procs, wait[1])
        if kind in ("all_of", "any_of"):
            children = [sim.timeout(wait[1], "a"), sim.timeout(wait[2], "b")]
        else:
            children = [self._pick(self.events, wait[1]),
                        self._pick(self.events, wait[2])]
        return sim.all_of(children) if kind.startswith("all_of") else sim.any_of(children)

    def process(self, tag, catch: bool, waits):
        for wait in waits:
            if wait[0] == "call":
                self.sim.call_later(wait[1], self.log.append, ("call", tag))
                continue
            try:
                got = yield self._target(wait)
            except _THROWN as exc:
                if not catch:
                    raise
                self.log.append((self.sim.now, "raised", tag, _plain(exc)))
            else:
                self.log.append((self.sim.now, "resumed", tag, _plain(got)))
        return tag


@settings(max_examples=200, deadline=None)
@given(program=PROGRAMS, strict=st.booleans())
def test_plain_calls_dispatch_what_callback_events_did(program, strict):
    new = _Run(engine, program, hooks=True, strict=strict)
    old = _Run(oracle, program, hooks=True, strict=strict)
    assert new.prof.seen == old.prof.seen
    assert new.log == old.log
    assert new.findings == old.findings
    # the profiler's own counters say what the dispatch labels say
    kinds = collections.Counter(label for _when, label, _depth in old.prof.seen)
    counted = new.prof.counters.get("sim.dispatch", {})
    assert {k: v for k, v in counted.items() if k.startswith("event.")} == kinds
    # hooks off: the dead-branch path has the same effects
    bare = _Run(engine, program, hooks=False)
    assert bare.log == new.log == _Run(oracle, program, hooks=False).log


def test_the_generator_reaches_every_dispatch_kind():
    """A fixed program with every kind in it, so a silent generator change
    cannot shrink what the differential test covers."""
    program = [
        ("call_later", 0.0, (0, "write", [("call_at", 0.0, (1, "read", []))])),
        ("timeout", 1.0, (0, "write", [])),
        ("event", 1.0, False, (2, "append", [])),
        ("gate",),
        ("process", True, [("timeout", 0.5), ("event", 3), ("all_of", 0.0, 1.0),
                           ("any_of_events", 2, 3), ("processed",)]),
        ("process", False, [("join", 0), ("call", 0.0)]),
        ("interrupt", 0),
        ("fire", 3, True),
    ]
    new = _Run(engine, program, hooks=True)
    old = _Run(oracle, program, hooks=True)
    assert new.prof.seen == old.prof.seen and new.log == old.log
    labels = {label for _when, label, _depth in new.prof.seen}
    assert labels == {"event.Callback", "event.Timeout", "event.Event",
                      "event.AllOf", "event.AnyOf", "event.Process"}
    assert any(entry[1] == "raised" for entry in new.log if len(entry) > 2)
