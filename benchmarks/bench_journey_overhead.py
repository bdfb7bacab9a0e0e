"""Journey tracing overhead: the disabled path must cost (almost) nothing.

The acceptance bar for per-packet tracing is that a recorder attached at
``sample_rate=0`` slows a packet-pushing run by at most 2% of wall time.
That configuration is statically dead, so ``attach`` installs no wrapper
on any host, switch, table or channel (the data plane itself has no hook
to guard) and the bar holds by construction — this bench keeps it honest
by measuring.  A predicate that always answers "no" (wrappers live, every
event paying a wrapper frame and the memoized sampling check), full
sampling, and an armed flight recorder are reported alongside for
context; they do real per-event work and carry no 2% bar.

Timing is CPU time (``time.process_time``) with the garbage collector
paused, min-of-N over interleaved repetitions — wall clocks on shared CI
machines are too noisy to resolve a 2% bound.

Pausing the collector hides what retained history costs: every full
collection walks whatever the recorders kept.  So full sampling and the
armed flight recorder are timed a second time with the collector **on**,
over ten times the packets (``overhead, gc on``) — the column that would
move if stored events became collector-tracked objects again (see "What
recording costs" in docs/observability.md).

What recorded history costs in memory is a separate, deterministic row
(``-k retained``): ``tracemalloc`` bytes retained per recorded event over
1,000 packets, once every flight ring is full, for full sampling and the
armed flight recorder, without the journey log's growth slack (how far
the bytearray over-allocated depends only on where its last resize fell).
Its bar is 42 B: a packed journey record is 25–49 bytes by kind, its
fields narrowed to the ranges the model bounds, and a flight ring holds
the record's offset in the log, not a copy (~36.7 B/event on this chain;
53.0 with 37–65 B records and a copy per ring; the row tuples they
replaced held ~150).

What reading the history back costs is a relative row (``-k read``): two
reads over ``run_chaos(seed=0)``'s recorder — the correlation attack's
scoring against the journeys, and every journey's ``delivered_uids``,
``path``, ``origin`` and ``delivered_to`` — each done in place (a query
reads the two to four fields it needs from the packed records) and
through a full-row decode (every query decodes its journey's rows, then
reads them by position: how every read worked before), on the same
journeys, interleaved, min-of-N.  Grouping the log by content tag is the
same on both sides and is left out.  Its bar: in place at least 3x
faster.
"""

import gc
import sys
import time
import tracemalloc
from unittest import mock

import repro.faults.chaos as chaos
from repro.attacks.correlation import correlate_with_truth
from repro.bench import FigureResult
from repro.faults import run_chaos
from repro.net import FlowEntry, Match, Network, Output, linear
from repro.obs import FlightRecorder, Journey, JourneyRecorder

PACKETS = 2500
SPACING_S = 1e-4
REPS = 10
#: the collector-on runs: long enough for several full collections
GC_ON_PACKETS = 10 * PACKETS
GC_ON_REPS = 3
GC_ON_MODES = ("baseline", "flight-armed", "full-sampling")
#: the retained-memory row: its modes, its bar and its packet counts
RETAINED_MODES = ("flight-armed", "full-sampling")
RETAINED_BYTES_PER_EVENT = 42
RETAINED_WARM_UP = 100  # past every ring's 64-event capacity
RETAINED_PACKETS = 1000
#: the read row: in place must beat a full-row decode by this factor
READ_SPEEDUP = 3.0
READ_REPS = 7


def _chain(mode: str):
    """The 3-switch chain with ``mode``'s recorder; ``(net, h1, h3, recorder)``."""
    net = Network(linear(3, hosts_per_switch=1), seed=11)
    h1, h3 = net.host("h1"), net.host("h3")
    for sw, out in (("s1", ("s1", "s2")), ("s2", ("s2", "s3")),
                    ("s3", ("s3", "h3"))):
        net.switch(sw).table.install(
            FlowEntry(Match(ip_dst=h3.ip), [Output(net.port(*out))])
        )
    h3.bind("tcp", 80, lambda host, p: None)
    rec = None
    if mode == "sampling-zero":
        rec = JourneyRecorder.attach(net, sample_rate=0.0)
    elif mode == "predicate-no":
        rec = JourneyRecorder.attach(net, predicate=lambda p: False)
    elif mode == "flight-armed":
        rec = JourneyRecorder.attach(
            net, sample_rate=0.0, flight=FlightRecorder(capacity=64)
        )
    elif mode == "full-sampling":
        rec = JourneyRecorder.attach(net, sample_rate=1.0)
    return net, h1, h3, rec


def _burst_time(mode: str, packets: int = PACKETS, collector: bool = False) -> float:
    """CPU seconds to push ``packets`` packets through a 3-switch chain."""
    net, h1, h3, _rec = _chain(mode)

    def _send(i):
        net.sim.call_at(
            i * SPACING_S,
            lambda: h1.send_packet(
                h1.make_packet(h3.ip, sport=1000 + (i % 50000), dport=80,
                               payload_size=100)
            ),
        )

    for i in range(packets):
        _send(i)
    gc.collect()
    if not collector:
        gc.disable()
    try:
        t0 = time.process_time()
        net.run()
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    assert h3.packets_received == packets
    return elapsed


MODES = (
    "baseline", "sampling-zero", "predicate-no", "flight-armed",
    "full-sampling",
)


def run_overhead() -> FigureResult:
    result = FigureResult(
        "Journey overhead",
        "wall-time cost of journey hooks on a packet-pushing run",
        x_label="configuration", y_label="relative wall time", unit="x",
    )
    for mode in MODES:  # warm-up pass: imports, allocator, branch caches
        _burst_time(mode)
    best = {mode: float("inf") for mode in MODES}
    for _ in range(REPS):  # interleaved so drift hits every mode equally
        for mode in MODES:
            best[mode] = min(best[mode], _burst_time(mode))
    for mode in MODES:
        result.add("overhead", mode, best[mode] / best["baseline"])
    best = {mode: float("inf") for mode in GC_ON_MODES}
    for _ in range(GC_ON_REPS):
        for mode in GC_ON_MODES:
            best[mode] = min(
                best[mode], _burst_time(mode, GC_ON_PACKETS, collector=True)
            )
    for mode in GC_ON_MODES:
        result.add("overhead, gc on", mode, best[mode] / best["baseline"])
    return result


def test_journey_overhead(benchmark, save_table):
    result = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    save_table("journey_overhead", result)

    # The acceptance bar: a sample_rate=0 recorder is within 2% of baseline.
    assert result.value("overhead", "sampling-zero") <= 1.02
    # Doing real per-event work costs real time, but stays within sane
    # bounds for a pure-python recorder on this hook density.
    assert result.value("overhead", "predicate-no") < 2.0
    assert result.value("overhead", "flight-armed") < 3.0
    assert result.value("overhead", "full-sampling") < 3.0
    # With the collector on and ten times the history, retained events must
    # not cost more than recording them did.
    assert result.value("overhead, gc on", "flight-armed") < 3.0
    assert result.value("overhead, gc on", "full-sampling") < 3.0


def _log_slack(rec: JourneyRecorder) -> int:
    """Bytes the journey log has allocated past its records (its growth
    slack, which depends only on where its last resize fell)."""
    return sys.getsizeof(rec._log) - len(rec._log)


def _retained_per_event(mode: str) -> float:
    """``tracemalloc`` bytes left behind per recorded event by
    ``RETAINED_PACKETS`` packets, after a warm-up that fills every ring,
    the journey log's growth slack left out."""
    tracemalloc.start()
    try:
        net, h1, h3, rec = _chain(mode)

        def burst(n):
            # one 5-tuple: neither the switches' lookup caches nor the
            # recorder's intern table may grow
            for _ in range(n):
                h1.send_packet(h1.make_packet(h3.ip, sport=1000, dport=80,
                                              payload_size=100))
                net.run()

        burst(RETAINED_WARM_UP)
        gc.collect()
        before, events = tracemalloc.get_traced_memory()[0], rec.events_recorded
        slack = _log_slack(rec)
        burst(RETAINED_PACKETS)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        retained -= _log_slack(rec) - slack
    finally:
        tracemalloc.stop()
    return retained / (rec.events_recorded - events)


def test_retained_bytes_per_event(save_table):
    result = FigureResult(
        "Journey retained memory",
        "bytes left behind per recorded event, every ring full",
        x_label="configuration", y_label="retained", unit="B/event",
    )
    for mode in RETAINED_MODES:
        result.add("retained", mode, _retained_per_event(mode))
    save_table("journey_retained", result)
    for mode in RETAINED_MODES:
        assert result.value("retained", mode) <= RETAINED_BYTES_PER_EVENT, mode


class _Decoding:
    """A journey every query of which decodes the journey's rows in full,
    then reads them by position."""

    def __init__(self, journey: Journey):
        self._journey = journey

    def __getattr__(self, query: str):
        journey = self._journey
        return getattr(Journey(journey.content_tag, list(journey._rows)), query)


def _scoring_inputs():
    """``run_chaos(seed=0)``'s journey recorder and the compromised Mimic
    Node's observation point its correlation attack is scored at."""
    seen = {}

    def keep(point, journeys, *args, **kwargs):
        seen["point"] = point
        return correlate_with_truth(point, journeys, *args, **kwargs)

    with mock.patch.object(chaos, "correlate_with_truth", keep):
        _card, dep = run_chaos(seed=0)
    return dep.journey, seen["point"]


def _read_back(journeys) -> list:
    return [
        (j.delivered_uids(), j.path(), j.origin(), j.delivered_to())
        for j in journeys.values()
    ]


def test_reading_in_place_beats_a_full_row_decode(save_table):
    rec, point = _scoring_inputs()
    in_place = rec.journeys_by_content_tag()
    decoding = {tag: _Decoding(j) for tag, j in in_place.items()}
    reads = {
        "scoring": lambda journeys: correlate_with_truth(point, journeys),
        "read-back": _read_back,
    }
    sides = {"in place": in_place, "full-row decode": decoding}
    for name, read in reads.items():  # the same answers either way
        assert read(in_place) == read(decoding), name
    best = {(name, side): float("inf") for name in reads for side in sides}
    gc.collect()
    gc.disable()
    try:
        for _ in range(READ_REPS):  # interleaved so drift hits every read equally
            for name, read in reads.items():
                for side, journeys in sides.items():
                    t0 = time.process_time()
                    read(journeys)
                    elapsed = time.process_time() - t0
                    best[name, side] = min(best[name, side], elapsed)
    finally:
        gc.enable()
    result = FigureResult(
        "Journey reads",
        f"run_chaos(seed=0): {len(in_place)} journeys, {rec.events_recorded} events",
        x_label="read", y_label="full-row decode / in place", unit="x",
    )
    for name in reads:
        result.add("speed-up", name, best[name, "full-row decode"] / best[name, "in place"])
    save_table("journey_reads", result)
    for name in reads:
        assert result.value("speed-up", name) >= READ_SPEEDUP, name
