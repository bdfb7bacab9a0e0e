"""A rule's compiled program against the action interpreter.

A rule of header writes then one wire ``Output`` runs in
:meth:`FlowTable.apply` as its :attr:`FlowEntry.program`; every other rule
runs through ``_run_actions``.  Setting an entry's ``program`` to None sends
``apply`` to the interpreter, so the same entry and packet go down both paths
and must leave the same emissions, punt flag, counters, live packet and
exception.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.net import (
    CONTROLLER_PORT,
    Drop,
    FlowEntry,
    FlowTable,
    Group,
    GroupEntry,
    Match,
    Output,
    Packet,
    PopMpls,
    PushMpls,
    SetField,
    ToController,
    ip,
    mac,
)

GROUP_ID = 5
FIELDS = [f.name for f in dataclasses.fields(Packet)]

#: header values, out-of-range ports and labels included: ``copy`` rejects them
VALUES = {
    "eth_src": st.integers(0, 2**48 - 1).map(mac),
    "eth_dst": st.integers(0, 2**48 - 1).map(mac),
    "ip_src": st.integers(0, 2**32 - 1).map(ip),
    "ip_dst": st.integers(0, 2**32 - 1).map(ip),
    "sport": st.integers(-2, 0x10001),
    "dport": st.integers(-2, 0x10001),
    "mpls": st.none() | st.integers(-2, 2**32 + 1),
    "ttl": st.integers(0, 255),
}
LABELS = st.integers(-2, 2**32 + 1)
WRITES = st.one_of(
    st.sampled_from(sorted(VALUES)).flatmap(
        lambda f: VALUES[f].map(lambda v: SetField(f, v))),
    LABELS.map(PushMpls),
    st.just(PopMpls()),
)
WIRE_OUTPUT = st.integers(0, 8).map(Output)
ANY_ACTION = st.one_of(
    WRITES, WIRE_OUTPUT, st.just(Output(CONTROLLER_PORT)), st.just(Drop()),
    st.just(ToController()), st.just(Group(GROUP_ID)),
)
PACKETS = st.builds(
    Packet,
    eth_src=VALUES["eth_src"], eth_dst=VALUES["eth_dst"],
    ip_src=VALUES["ip_src"], ip_dst=VALUES["ip_dst"],
    proto=st.sampled_from(["tcp", "udp"]),
    sport=st.integers(0, 0xFFFF), dport=st.integers(0, 0xFFFF),
    mpls=st.none() | st.integers(0, 2**20), ttl=st.integers(1, 64),
    payload_size=st.integers(0, 1500), uid=st.integers(1, 10**6),
)
#: writes then one wire output: the shape that compiles
UNICAST = st.tuples(st.lists(WRITES, max_size=6), WIRE_OUTPUT).map(
    lambda parts: [*parts[0], parts[1]])


def header(packet: Packet) -> tuple:
    return tuple(getattr(packet, name) for name in FIELDS)


def run(actions, packet: Packet, compiled: bool) -> dict:
    """``apply`` on a fresh one-rule table, by the program or the interpreter."""
    table = FlowTable()
    table.install_group(GroupEntry(GROUP_ID, [[SetField("dport", 9), Output(7)]]))
    entry = FlowEntry(Match(), list(actions))
    table.install(entry)
    if not compiled:
        entry.program = None
    live = Packet(**{name: getattr(packet, name) for name in FIELDS})
    outcome: dict = {}
    try:
        emissions, to_controller, _ = table.apply(live, 1)
    except Exception as exc:  # the same error must leave both paths
        outcome["error"] = (type(exc), str(exc))
    else:
        outcome["emissions"] = [(port, header(p)) for port, p in emissions]
        outcome["to_controller"] = to_controller
    outcome["counters"] = (entry.packet_count, entry.byte_count)
    outcome["live"] = header(live)
    return outcome


@settings(max_examples=400, deadline=None)
@given(actions=UNICAST, packet=PACKETS)
def test_a_unicast_rule_runs_its_program_as_the_interpreter_would(actions, packet):
    entry = FlowEntry(Match(), actions)
    assert entry.program is not None
    assert run(actions, packet, compiled=True) == run(actions, packet, compiled=False)


@settings(max_examples=300, deadline=None)
@given(actions=st.lists(ANY_ACTION, max_size=6), packet=PACKETS)
def test_any_rule_gives_the_same_result_on_both_paths(actions, packet):
    assert run(actions, packet, compiled=True) == run(actions, packet, compiled=False)


@settings(max_examples=300, deadline=None)
@given(actions=st.lists(ANY_ACTION, max_size=6))
def test_only_writes_then_one_wire_output_compile(actions):
    program = FlowEntry(Match(), actions).program
    *writes, last = actions or [None]
    unicast = (
        isinstance(last, Output) and last.port != CONTROLLER_PORT
        and all(isinstance(a, (SetField, PushMpls, PopMpls)) for a in writes)
    )
    assert (program is not None) == unicast
    if unicast:
        assert program[1] == last.port
        assert len(program[0]) == len(writes) == FlowEntry(Match(), actions).rewrite_count

