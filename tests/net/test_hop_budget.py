"""What one packet hop may cost, in interpreter frames — and that the budget
is not met by dropping a record.

The scenario is a scripted 8-switch rewriting chain (three ``SetField`` and
one ``Output`` per switch, every hook off — the trace log included — unless
a case turns the journey recorder on or attaches the log): the shape of a
MIC path where
every switch is a Mimic Node.  Costs are *counts* from ``cProfile`` — calls
of a 200-packet burst minus those of a 100-packet burst, so everything that
does not scale with packets cancels — never wall-clock time.  Only Python
frames are counted (profile entries whose ``code`` is a code object):
builtin-call accounting differs between CPython 3.10 and 3.12.

See docs/dataplane.md, "The cost of one hop".
"""

import cProfile
import gc
from typing import Callable

from packet_oracle import rebuild_copy

from repro.net import FlowEntry, Match, Network, Output, Packet, SetField, ip, linear
from repro.obs import FlightRecorder, JourneyRecorder

SWITCHES = 8
WARM_UP = 10
#: Python frames one packet may cost per switch it crosses, host work
#: included (the parent of the change that introduced this test: 47.25)
FRAME_BUDGET = 32.0
#: what it costs today, pinned: the trace log attached on demand took it
#: from 29.625 to 26.0, a heap of plain calls (no event object per
#: ``call_later``, two frames per kernel step less) to 21.25, bookkeeping
#: read as attributes (table version, CPU meter, ingress size, the NIC
#: channel) and a one-frame lookup to this, and a new per-packet call
#: shows here first
HOOKS_OFF_FRAMES = 16.25
#: the same with every journey hook on (full sampling, an armed flight
#: recorder) — pinned, not bounded: the one-sink hook path took it from
#: 58.875 to 39.625, the trace log leaving the default path to 36.0, the
#: heap of plain calls to 31.25, attribute bookkeeping to this, and a
#: second header build or sink call shows here
HOOKS_ON_FRAMES = 26.25
#: bookkeeping that is an attribute read or write on the hop, never a call
BOOKKEEPING = (
    ("net/flowtable.py", "version"),
    ("net/flowtable.py", "_lookup"),
    ("net/node.py", "consume"),
    ("net/host.py", "_book_stack_work"),
    ("net/node.py", "transmit"),
)


def rewriting_chain(hooks: bool = False) -> tuple[Network, Callable[[int], None]]:
    """The chain and ``send(n)``, which pushes ``n`` packets and runs dry;
    ``hooks`` attaches a full-sampling journey with an armed flight recorder."""
    net = Network(linear(SWITCHES, hosts_per_switch=1))
    if hooks:
        JourneyRecorder.attach(net, sample_rate=1.0, flight=FlightRecorder())
    src, dst = net.host("h1"), net.host(f"h{SWITCHES}")
    # the header pair on each segment; addresses are built here, at set-up
    pairs = [(src.ip, ip("10.200.0.0"))]
    pairs += [(ip(f"10.200.{i}.1"), ip(f"10.200.{i}.2")) for i in range(1, SWITCHES)]
    pairs += [(ip("10.200.99.1"), dst.ip)]
    for i in range(SWITCHES):
        here, there = f"s{i + 1}", (f"s{i + 2}" if i + 1 < SWITCHES else dst.name)
        (m_src, m_dst), (out_src, out_dst) = pairs[i], pairs[i + 1]
        net.switch(here).table.install(FlowEntry(
            Match(ip_src=m_src, ip_dst=m_dst),
            [SetField("ip_src", out_src), SetField("ip_dst", out_dst),
             SetField("mpls", 100 + i), Output(net.port(here, there))],
        ))
    dst.bind("udp", 9, lambda host, packet: None)

    def send(n: int) -> None:
        for _ in range(n):
            src.send_packet(src.make_packet(
                pairs[0][1], proto="udp", sport=7, dport=9, payload_size=64))
        net.run()

    send(WARM_UP)
    assert dst.packets_received == WARM_UP
    return net, send


def profiled_calls(send, n: int) -> dict[tuple[str, str], int]:
    """Calls per Python function — ``(file tail, name)`` — of ``send(n)``."""
    profile = cProfile.Profile()
    # paused collector: a gc.callbacks hook (hypothesis installs one) would
    # count as frames whenever the run happens to cross a collection
    gc.disable()
    profile.enable()
    try:
        send(n)
    finally:
        profile.disable()
        gc.enable()
    calls: dict[tuple[str, str], int] = {}
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str):  # a builtin is listed by its name
            key = ("/".join(code.co_filename.split("/")[-2:]), code.co_name)
            calls[key] = calls.get(key, 0) + entry.callcount
    return calls


def per_packet_calls(hooks: bool = False) -> dict[tuple[str, str], float]:
    """Python calls per packet through the chain, by function."""
    net, send = rewriting_chain(hooks)
    small = profiled_calls(send, 100)
    large = profiled_calls(send, 200)
    assert net.host(f"h{SWITCHES}").packets_received == WARM_UP + 300
    return {
        key: (large[key] - small.get(key, 0)) / 100
        for key in large if large[key] != small.get(key, 0)
    }


def test_a_packet_hop_stays_inside_its_frame_budget():
    per_packet = per_packet_calls()
    # the kernel's one per-event entry: 2 per switch (pipeline, link), the
    # sender's stack, its link, and the receiver's stack
    assert per_packet[("sim/engine.py", "step")] == 2 * SWITCHES + 3
    # one classification per switch hop, one frame, each a cache hit
    assert per_packet[("net/flowtable.py", "lookup")] == SWITCHES
    assert ("net/flowtable.py", "_lookup_indexed") not in per_packet
    assert per_packet[("net/packet.py", "copy")] == SWITCHES  # one per emission
    # sizes are read where they are used: once per host stack, once per
    # link send, once per emission's byte count — and no ingress size in
    # apply, since the rule emits
    assert per_packet[("net/packet.py", "size")] == 2 + (SWITCHES + 1) + SWITCHES
    for key in BOOKKEEPING:
        assert key not in per_packet, key
    frames_per_hop = sum(per_packet.values()) / SWITCHES
    assert frames_per_hop <= FRAME_BUDGET
    assert frames_per_hop == HOOKS_OFF_FRAMES, sorted(
        per_packet.items(), key=lambda kv: -kv[1])
    assert ("sim/trace.py", "emit") not in per_packet  # no log attached


def test_a_recorded_hop_costs_one_row_build_per_event():
    """Every hook on: each event is one hook frame and one sink frame, and
    the ingress header is built once and carried to classification."""
    per_packet = per_packet_calls(hooks=True)
    # per hop: ingress, rewrite, egress and the outgoing link.tx; plus the
    # sender's host.tx and link.tx and the receiver's host.rx
    assert per_packet[("obs/journey.py", "_record")] == 4 * SWITCHES + 3
    assert per_packet[("obs/journey.py", "on_switch_ingress")] == SWITCHES
    assert per_packet[("obs/journey.py", "on_switch_applied")] == SWITCHES
    assert ("obs/journey.py", "header_tuple") not in per_packet
    for key in BOOKKEEPING:
        assert key not in per_packet, key
    frames_per_hop = sum(per_packet.values()) / SWITCHES
    assert frames_per_hop == HOOKS_ON_FRAMES, sorted(
        per_packet.items(), key=lambda kv: -kv[1])


def test_the_budget_is_not_met_by_dropping_a_record(monkeypatch):
    def burst_rows() -> list[tuple]:
        net, send = rewriting_chain()
        trace = net.attach_trace()
        send(50)
        return trace._rows

    fast = burst_rows()
    monkeypatch.setattr(Packet, "copy", rebuild_copy)  # the old emission
    reference = burst_rows()
    # host.tx, link.tx, then (switch.fwd, link.tx) per switch, host.rx
    assert len(reference) == 50 * (2 + 2 * SWITCHES + 1)
    assert fast == reference
