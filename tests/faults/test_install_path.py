"""The one install path: push -> settle -> commit-or-retract.

Every data-plane change the Mimic Controller makes is "make the switches
agree with a compiled intent or leave no trace".  These tests pin both
halves under adversity: a rule never goes live before the group it points
at (per-switch bundles), and nothing a refused, raced or torn-down install
pushed survives it (``orphan_mic_state`` comes back empty).
"""

import dataclasses
import functools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from orphans import orphan_mic_state
from repro.analysis.sanitizer import SimSanitizer
from repro.core import deploy_mic
from repro.core.client import MicDatagramServer
from repro.core.controller import EstablishError
from repro.faults import FaultSchedule, run_chaos, specs as fault_specs
from repro.net import Group, NetParams, fat_tree
from tests.anonymity.helpers import establish_canonical
from tests.watchers import on_bundle

REGRESSIONS = pathlib.Path(__file__).resolve().parent / "regressions"


# -- (a) the repair race ---------------------------------------------------
@pytest.mark.parametrize("seed", (11, 14, 16, 19))
def test_decoy_channels_survive_chaos_at_the_benchmark_shape(seed):
    """``chaos_observed``'s shape with the scenario's default ``decoys=1``.

    Before bundles a group-mod and the flow-mod referencing it drew
    independent fates, so a delayed group let the rule land first and the
    next probe died with ``TableMissError: group N not installed``.
    """
    sanitizer = SimSanitizer()
    card, dep = run_chaos(
        seed=seed, n_channels=8, probe_period_s=0.05, sanitizer=sanitizer
    )
    assert dep.mic.parked_flows == 0
    assert card["verification"] == {"ok": True, "violations": 0}
    assert sanitizer.findings == [], sanitizer.report()
    assert orphan_mic_state(dep) == {}


# -- (b) generated fault schedules -----------------------------------------
def _one_channel(dep, decoys=1):
    """One echoing ``h1 -> h16`` datagram channel; returns its socket."""
    server = MicDatagramServer(dep.net.host("h16"), 7000)
    socks = []

    def serve():
        while True:
            dg = yield server.recv()
            server.reply(dg, dg.data)

    def connect():
        socks.append((yield from dep.endpoint("h1").connect_datagram(
            "h16", service_port=7000, n_mns=3, decoys=decoys
        )))

    dep.sim.process(serve())
    dep.sim.process(connect())
    dep.run_for(2.0)
    assert socks, "establishment did not finish under the fault schedule"
    return socks[0]


@functools.lru_cache(maxsize=None)
def _pilot(deploy_seed):
    """The walk a fault-free run plans (planning draws nothing from the
    fault plane, so the faulted run plans the same one)."""
    dep = deploy_mic(fat_tree(4), seed=deploy_seed)
    sock = _one_channel(dep)
    plan = dep.mic.channels[sock.channel_id].flows[0]
    return tuple(plan.walk), plan.walk[plan.mn_positions[0]]


def _adversity(deploy_seed, seed, loss_prob, delay_prob, extra_delay_s):
    """Lossy control channel throughout; flap the walk's middle link, then
    crash the initiator's edge switch and the first MN (the group holder)."""
    walk, first_mn = _pilot(deploy_seed)
    mid = len(walk) // 2
    sched = FaultSchedule(seed=seed)
    sched.rule_install_loss(0.0, 30.0, loss_prob, delay_prob, extra_delay_s)
    sched.link_flap(walk[mid - 1], walk[mid], at_s=2.5, down_for_s=0.4)
    for n, sw in enumerate(sorted({walk[1], first_mn})):
        sched.switch_crash(sw, at_s=4.0 + n, down_for_s=0.5)
    return sched


def _schedule_json(deploy_seed, sched):
    return json.dumps({
        "deploy_seed": deploy_seed,
        "seed": sched.seed,
        "specs": [
            {"kind": type(s).__name__, **dataclasses.asdict(s)} for s in sched.specs
        ],
    }, indent=1, sort_keys=True)


def _schedule_from_json(text):
    doc = json.loads(text)
    sched = FaultSchedule(seed=doc["seed"])
    for spec in doc["specs"]:
        sched.add(getattr(fault_specs, spec.pop("kind"))(**spec))
    return doc["deploy_seed"], sched


def _drive(deploy_seed, sched):
    """establish(decoys=1) -> link flap -> rotate_flow -> crash / reboot,
    probing throughout; asserts the group-before-rule invariant at every
    rule a bundle lands (``on_bundle``) and a traceless teardown at the
    end."""
    dep = deploy_mic(
        fat_tree(4), seed=deploy_seed, faults=sched,
        controller_kwargs={"detection_latency_s": 0.002},
    )
    net, mic = dep.net, dep.mic

    def groups_precede_their_rules(sw, _entry):
        table = sw.table
        for entry in table.iter_entries():
            for action in entry.actions:
                assert not isinstance(action, Group) or (
                    action.group_id in table.groups
                ), f"{sw.name} t={dep.sim.now}: {entry.describe()} before its group"

    on_bundle(net, groups_precede_their_rules)
    sock = _one_channel(dep)
    channel = mic.channels[sock.channel_id]

    def probe():
        while sock.channel_id in mic.channels:
            sock.send(b"probe")
            yield dep.sim.timeout(0.01)

    dep.sim.process(probe())
    for at_s in (2.503, 3.2, 4.001, 4.6):  # mid-repair, quiet, mid-crash, after
        dep.sim.call_later(at_s - dep.sim.now, mic.rotate_flow, channel, 0)
    dep.run_for(6.0)  # no exception may escape the run
    mic.teardown(sock.channel_id)
    dep.run_for(4.0)
    assert orphan_mic_state(dep) == {}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    deploy_seed=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    loss_prob=st.sampled_from((0.0, 0.1, 0.3)),
    delay_prob=st.sampled_from((0.0, 0.3, 1.0)),
    extra_delay_s=st.sampled_from((0.0005, 0.002, 0.01)),
)
def test_generated_fault_schedules_never_expose_a_rule_before_its_group(
    deploy_seed, seed, loss_prob, delay_prob, extra_delay_s
):
    if not (loss_prob or delay_prob):
        delay_prob = 0.5  # a loss window needs one of the two
    sched = _adversity(deploy_seed, seed, loss_prob, delay_prob, extra_delay_s)
    text = _schedule_json(deploy_seed, sched)
    try:
        _drive(deploy_seed, sched)
    except BaseException:
        # hypothesis replays while shrinking: the last file written is the
        # shrunk counter-example, replayed below from then on
        REGRESSIONS.mkdir(exist_ok=True)
        (REGRESSIONS / "install_path_shrunk.json").write_text(text + "\n")
        raise


@pytest.mark.parametrize(
    "path", sorted(REGRESSIONS.glob("install_path_*.json")), ids=lambda p: p.stem
)
def test_recorded_fault_schedules_stay_fixed(path):
    _drive(*_schedule_from_json(path.read_text()))


# -- (d) the establish leak ------------------------------------------------
@pytest.mark.parametrize("capacity", (6, 8, 12))
def test_refused_establishes_leave_no_trace_on_serialized_shards(capacity):
    """16 concurrent two-flow establishes into tables that cannot hold
    them, on 4 shards whose CPU queues make sibling sends land at different
    times: undoing on the *first* failure used to leak the late ones."""
    dep = deploy_mic(
        fat_tree(4), seed=0, shards=4,
        params=NetParams(switch_table_capacity=capacity),
        mic_kwargs={"cpu_model": "serialized"},
    )
    outcomes = []

    def establish(i):
        try:
            yield from dep.mic.establish(
                f"h{i + 1}", f"h{16 - i}", service_port=7000 + i,
                n_flows=2, n_mns=3, decoys=1, proto="udp",
            )
            outcomes.append("ok")
        except EstablishError:  # anything else escapes and fails the run
            outcomes.append("refused")

    for i in range(16):
        dep.sim.process(establish(i))
    dep.run_for(10.0)
    assert len(outcomes) == 16
    assert "ok" in outcomes and "refused" in outcomes
    assert orphan_mic_state(dep) == {}


# -- teardown while a repair is in flight ----------------------------------
@pytest.mark.parametrize("after_s", (0.0025, 0.003, 0.0035, 0.004, 0.010))
def test_teardown_during_repair_leaks_nothing(after_s):
    """The repairer re-checks, at its commit point, that its channel still
    exists; a flow mid-repair has no committed intent, so ``teardown``
    leaves whatever is installed to the repairer."""
    dep = deploy_mic(
        fat_tree(4), seed=3, controller_kwargs={"detection_latency_s": 0.002}
    )
    sock = _one_channel(dep)
    mic = dep.mic
    walk = mic.channels[sock.channel_id].flows[0].walk
    mid = len(walk) // 2
    dep.net.set_link_state(walk[mid - 1], walk[mid], False)
    dep.sim.call_later(after_s, mic.teardown, sock.channel_id)
    dep.run_for(2.0)
    assert sum(mic.rule_footprint().values()) == 0
    assert not any(sw.table.groups for sw in dep.net.switches())
    assert mic.registry.total_keys() == 0
    assert mic.flow_ids.live_count == 0
    assert mic.compiled == {}
    assert mic.repairs_in_flight == 0 and mic.parked_flows == 0


# -- the commit point's other branches ---------------------------------------
def _established(seed=3, **mic_kwargs):
    """fat_tree(4) with one committed ``h1 -> h16`` channel (decoys=1);
    returns ``(dep, channel)``."""
    dep = deploy_mic(fat_tree(4), seed=seed, mic_kwargs=mic_kwargs)
    grants = []

    def establish():
        grants.append((yield from dep.mic.establish(
            "h1", "h16", service_port=7000, n_mns=3, decoys=1, proto="udp"
        )))

    dep.sim.process(establish())
    dep.run_for(1.0)
    return dep, dep.mic.channels[grants[0].channel_id]


def _reboot(dep, switch):
    dep.net.set_switch_state(switch, False)
    dep.run_for(0.1)
    dep.net.set_switch_state(switch, True)


@pytest.mark.parametrize("after_s", (0.0, 0.00005, 0.0001))
def test_teardown_while_a_resync_bundle_is_in_flight_leaks_nothing(after_s):
    """On serialized shards the resync bundle queues for the CPU while the
    teardown's removal goes out at once and lands first; the resync must
    retract the flow it re-installed once it sees the channel gone."""
    dep, channel = _established(cpu_model="serialized")
    plan = channel.flows[0]
    _reboot(dep, plan.walk[plan.mn_positions[0]])
    dep.sim.call_later(after_s, dep.mic.teardown, channel.channel_id)
    dep.run_for(1.0)
    assert dep.mic.resyncs_completed == 1
    assert orphan_mic_state(dep) == {}


@pytest.mark.parametrize("after_s", (0.0, 0.0005, 0.0009))
def test_a_resync_whose_bundle_fails_does_not_complete(after_s):
    """The switch crashes again before the resync bundle lands: that resync
    is not counted, and the next reboot re-drives it."""
    dep, channel = _established()
    plan = channel.flows[0]
    victim = plan.walk[plan.mn_positions[0]]
    _reboot(dep, victim)
    dep.sim.call_later(after_s, dep.net.set_switch_state, victim, False)
    dep.run_for(0.5)
    assert dep.mic.resyncs_completed == 0
    dep.net.set_switch_state(victim, True)
    dep.run_for(0.5)
    assert dep.mic.resyncs_completed == 1
    assert dep.mic.verify().violations == []


@pytest.mark.parametrize("after_s", (0.0, 0.0005, 0.0009))
def test_a_second_failure_on_the_new_walk_during_settle_replans(after_s):
    """A link of the walk a repair just pushed fails before the bundles
    settle: the repairer must not commit a dead walk (no second repairer
    can start while it holds the cookie); it undoes and plans again."""
    dep, channel = _established()
    net, mic = dep.net, dep.mic
    old = channel.flows[0].walk
    first = old[len(old) // 2 - 1:len(old) // 2 + 1]
    compile_flow, planned = mic.strategy.compile_flow, []

    def fail_a_hop_of_the_first_replan(plan, *args):
        planned.append(plan.walk)
        if len(planned) == 1:
            hops = [
                hop for hop in zip(plan.walk, plan.walk[1:])
                if {net.topo.kind(n) for n in hop} == {"switch"}
                and set(hop) != set(first)
            ]
            dep.sim.call_later(after_s, net.set_link_state, *hops[len(hops) // 2], False)
        return compile_flow(plan, *args)

    mic.strategy.compile_flow = fail_a_hop_of_the_first_replan
    net.set_link_state(*first, False)
    dep.run_for(1.0)
    walk = channel.flows[0].walk
    assert len(planned) == 2 and mic.repairs_completed == 1
    assert walk == planned[1]
    assert all(dep.ctrl.view.graph.has_edge(u, v) for u, v in zip(walk, walk[1:]))
    assert mic.verify().violations == [] and orphan_mic_state(dep) == {}


@pytest.mark.parametrize("kind", ("repair", "rotate"))
def test_a_repairer_whose_shard_dies_in_flight_leaves_the_adopter_alone(kind):
    """The shard dies between pushing a repair and settling it; the adopter
    re-drives the flow under the same cookie and owner.  The dead repairer
    must not undo at its commit point: that would release the adopter's
    registry claims.  (What the dead attempt pushed off the walk still
    leaks: the strict ``_ORPHAN`` xfails of
    ``tests/controlplane/test_failover.py``.)"""
    dep, _ = establish_canonical(shards=4, decoys=1)
    mic = dep.mic
    victim = next(s for s in mic.shards if s.channels)
    channel = victim.channels[min(victim.channels)]
    compile_flow = mic.strategy.compile_flow

    def crash_at_the_push(plan, *args):
        mic.strategy.compile_flow = compile_flow
        dep.sim.call_later(0.0005, mic.crash_shard, victim.shard_id)
        return compile_flow(plan, *args)

    mic.strategy.compile_flow = crash_at_the_push
    if kind == "rotate":
        mic.rotate_flow(channel, 0)
    else:
        walk = channel.flows[0].walk
        dep.net.set_link_state(*walk[len(walk) // 2 - 1:len(walk) // 2 + 1], False)
    dep.run_for(3.0)
    assert mic.repairs_rescheduled == 1 and mic.repairs_in_flight == 0
    live = {
        f"ch{cid}/c{plan.cookie}"
        for cid, ch in mic.channels.items() for plan in ch.flows
    }
    assert live <= set(mic.registry.owners())


# -- (e) one message per switch --------------------------------------------
def _spy_on_send(mic):
    calls = []
    real = mic._send

    def spy(origin, sw_name, entries, groups):
        calls.append((sw_name, len(entries), len(groups)))
        return real(origin, sw_name, entries, groups)

    mic._send = spy
    return calls


def test_establish_repair_and_resync_send_one_bundle_per_switch():
    dep = deploy_mic(fat_tree(4), seed=3)
    mic = dep.mic
    calls = _spy_on_send(mic)
    sock = _one_channel(dep)
    plan = mic.channels[sock.channel_id].flows[0]

    def touched(compiled):
        return sorted({sw for part in compiled for sw, _obj in part})

    # establish: one bundle per touched switch, the group riding with the
    # first MN's rules
    intent = mic.compiled[plan.cookie]
    assert sorted(sw for sw, _n, _g in calls) == touched(intent)
    assert [(sw, g) for sw, _n, g in calls if g] == [
        (plan.walk[plan.mn_positions[0]], 1)
    ]
    assert sum(n + g for _sw, n, g in calls) == sum(map(len, intent))

    # repair
    del calls[:]
    mid = len(plan.walk) // 2
    dep.net.set_link_state(plan.walk[mid - 1], plan.walk[mid], False)
    dep.run_for(1.0)
    assert mic.repairs_completed == 1
    repaired = mic.compiled[plan.cookie]
    assert repaired is not intent
    assert sorted(sw for sw, _n, _g in calls) == touched(repaired)

    # resync of switch X sends only to X
    del calls[:]
    victim = mic.channels[sock.channel_id].flows[0].walk[1]
    dep.net.set_switch_state(victim, False)
    dep.run_for(0.2)
    dep.net.set_switch_state(victim, True)
    dep.run_for(1.0)
    assert mic.resyncs_completed == 1
    assert [sw for sw, _n, _g in calls] == [victim]
    assert mic.verify().violations == []
