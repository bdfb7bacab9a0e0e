"""Sanitizer overhead: the disabled path must be free and byte-identical.

The sim sanitizer's contract (``docs/analysis.md``) has two halves.  When
*not* attached, the kernel pays only statically-dead ``if sanitizer is not
None`` branches in ``_schedule``/``call_later``/``call_at``/``step`` — this
bench measures that cost against a hookless kernel (the branches literally
patched out, every heap entry the same ``(when, seq, fn, args)`` call) and
holds it to the 2% budget.  When attached, the sanitizer observes but never
perturbs: every mode below must produce a byte-identical digest of the
run's journey rows (every packet event) and report zero findings on this clean packet-pushing run.  Attached modes do
real per-event bookkeeping (root assignment, batch flushes) and carry a
loose sanity bound instead of the 2% bar.

Timing is CPU time (``time.process_time``) with the garbage collector
paused, min-of-N over interleaved repetitions — wall clocks on shared CI
machines are too noisy to resolve a 2% bound.
"""

import gc
import heapq
import time

from repro.analysis.sanitizer import SimSanitizer
from repro.bench import FigureResult
from repro.net import FlowEntry, Match, Network, Output, linear
from repro.obs import JourneyRecorder
from repro.sim.engine import SimulationError, Simulator

# The quantity under test (two dead pointer-compare branches per event)
# is far smaller than the journey bench's, so the bursts are longer and
# the min is taken over more repetitions to converge under CPU-time noise.
PACKETS = 4000
SPACING_S = 1e-4
REPS = 16

MODES = ("no-hooks", "baseline", "attached", "strict")


def _hookless_schedule(self, event, delay):
    """`Simulator._schedule` with the sanitizer branch removed."""
    if not delay >= 0:
        raise SimulationError(f"cannot schedule into the past (delay={delay})")
    if event._scheduled:
        raise SimulationError("event already scheduled")
    event._scheduled = True
    heapq.heappush(
        self._heap, (self.now + delay, next(self._counter), event._run_callbacks, ())
    )


def _hookless_call_later(self, delay, fn, *args):
    """`Simulator.call_later` with the sanitizer branch removed."""
    if not delay >= 0:
        raise SimulationError(f"cannot schedule into the past (delay={delay})")
    heapq.heappush(self._heap, (self.now + delay, next(self._counter), fn, args))


def _hookless_call_at(self, when, fn, *args):
    """`Simulator.call_at` with the sanitizer branch removed."""
    now = self.now
    delay = when - now
    if not delay >= 0:
        raise SimulationError(f"cannot schedule into the past (delay={delay})")
    heapq.heappush(self._heap, (now + delay, next(self._counter), fn, args))


def _hookless_step(self):
    """`Simulator.step` with the sanitizer and profiler branches removed."""
    if not self._heap:
        raise SimulationError("no more events")
    when, _seq, fn, args = heapq.heappop(self._heap)
    self.now = when
    fn(*args)
    return when


#: the kernel entry points the ``no-hooks`` mode swaps for the copies above
_HOOKLESS = {
    "_schedule": _hookless_schedule,
    "call_later": _hookless_call_later,
    "call_at": _hookless_call_at,
    "step": _hookless_step,
}


def _burst(mode: str) -> tuple[float, str]:
    """(CPU seconds, journey digest) for one packet burst under ``mode``."""
    net = Network(linear(3, hosts_per_switch=1), seed=11)
    h1, h3 = net.host("h1"), net.host("h3")
    for sw, out in (("s1", ("s1", "s2")), ("s2", ("s2", "s3")),
                    ("s3", ("s3", "h3"))):
        net.switch(sw).table.install(
            FlowEntry(Match(ip_dst=h3.ip), [Output(net.port(*out))])
        )
    h3.bind("tcp", 80, lambda host, p: None)
    journey = JourneyRecorder.attach(net)
    san = None
    if mode == "attached":
        san = SimSanitizer.attach(net.sim)
    elif mode == "strict":
        san = SimSanitizer.attach(net.sim, strict=True)

    def _send(i):
        net.sim.call_at(
            i * SPACING_S,
            lambda: h1.send_packet(
                h1.make_packet(h3.ip, sport=1000 + (i % 50000), dport=80,
                               payload_size=100)
            ),
        )

    for i in range(PACKETS):
        _send(i)
    patched = mode == "no-hooks"
    if patched:
        saved = {name: getattr(Simulator, name) for name in _HOOKLESS}
        for name, fn in _HOOKLESS.items():
            setattr(Simulator, name, fn)
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        net.run()
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
        if patched:
            for name, fn in saved.items():
                setattr(Simulator, name, fn)
    assert h3.packets_received == PACKETS
    if san is not None:
        san.check_teardown()
        assert san.findings == [], san.report()  # observes, never perturbs
        san.detach()
    digest = "\n".join(map(repr, journey.rows()))
    return elapsed, digest


def run_overhead() -> FigureResult:
    result = FigureResult(
        "Sanitizer overhead",
        "wall-time cost of the sanitizer hooks on a packet-pushing run",
        x_label="configuration", y_label="relative wall time", unit="x",
    )
    digests = {}
    for mode in MODES:  # warm-up pass: imports, allocator, branch caches
        _, digests[mode] = _burst(mode)
    # Byte-identity: sanitized, unsanitized and hookless runs record the
    # exact same journey rows — the sanitizer only watched.
    assert digests["no-hooks"], "the journey recorded nothing"
    for mode in MODES[1:]:
        assert digests[mode] == digests["no-hooks"], f"{mode} perturbed the run"
    best = {mode: float("inf") for mode in MODES}
    for _ in range(REPS):  # interleaved so drift hits every mode equally
        for mode in MODES:
            best[mode] = min(best[mode], _burst(mode)[0])
    for mode in MODES:
        result.add("overhead", mode, best[mode] / best["no-hooks"])
    return result


def test_sanitizer_overhead(benchmark, save_table):
    result = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    save_table("sanitizer_overhead", result)

    # The acceptance bar: with no sanitizer attached the dead branches in
    # _schedule/call_later/call_at/step cost at most 2% versus a kernel
    # without them.
    assert result.value("overhead", "baseline") <= 1.02
    # Attached modes do real per-event bookkeeping; loose sanity bounds.
    assert result.value("overhead", "attached") < 3.0
    assert result.value("overhead", "strict") < 3.0
