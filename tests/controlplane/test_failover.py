"""Shard failover: adoption from stored intents, without killing channels.

A crashed shard's channels, compiled intents, parked flows and in-flight
repairs all move to the surviving rendezvous owner; the verifier's intent
replay must come back clean afterwards, and the seed-0 chaos scenario run
on a sharded control plane (which adds a :class:`ShardCrash` to the plan)
must converge with zero permanently-parked flows.
"""

import pytest

from repro.core.deployment import deploy_mic
from repro.faults import FaultSchedule, ShardCrash, run_chaos
from repro.net.topology import fat_tree

from tests.anonymity.helpers import establish_canonical


def _settle(dep, deadline_s=20.0):
    t_end = dep.sim.now + deadline_s
    while dep.sim.now < t_end:
        dep.run_for(0.5)
        if not dep.mic.repairs_in_flight and not dep.mic.parked_flows:
            return
    raise AssertionError(
        f"control plane did not settle: repairing={dep.mic.repairs_in_flight} "
        f"parked={dep.mic.parked_flows}"
    )


def _owning_shard(mic):
    """The id of a shard that owns at least one channel."""
    return next(s.shard_id for s in mic.shards if s.channels)


def test_establishment_spreads_across_shards():
    dep, _ = establish_canonical(shards=4)
    mic = dep.mic
    assert mic.n_shards == 4
    assert mic.live_channels == 3
    owners = {s.shard_id for s in mic.shards if s.channels}
    assert len(owners) >= 2, "all channels landed on one shard"
    # The controller's surface matches the per-shard truth, and every
    # flow id comes from its planning shard's residue class.
    assert sum(len(s.channels) for s in mic.shards) == 3
    plans = [(s, p) for s in mic.shards for ch in s.channels.values()
             for p in ch.flows]
    assert mic.flow_ids.live_count == len(plans)
    assert all(p.flow_id % 4 == s.shard_id for s, p in plans)
    assert mic.verify().violations == []


def test_crash_adopts_channels_and_verifies_clean():
    dep, _ = establish_canonical(shards=4)
    mic = dep.mic
    victim = _owning_shard(mic)
    owned = len(mic.shards[victim].channels)
    mic.crash_shard(victim)
    dep.run_for(1.0)

    assert mic.failovers == 1
    assert mic.channels_adopted == owned
    assert not mic.shards[victim].channels
    assert not mic.shards[victim].compiled
    assert mic.live_channels == 3, "failover must not kill channels"
    assert mic.alive_shards() == tuple(
        i for i in range(4) if i != victim
    )
    # Adopted channels are owned by the surviving rendezvous owner of
    # their initiator's edge switch.
    for shard in mic.shards:
        for cid, ch in shard.channels.items():
            assert mic.shard_of_host(ch.initiator) is shard, cid
    assert mic.verify().violations == []

    # The adopter serves teardown for an adopted channel.
    cid = next(iter(sorted(
        c for s in mic.shards for c in s.channels
    )))
    mic.teardown(cid)
    dep.run_for(0.5)
    assert mic.live_channels == 2


def test_crash_mid_repair_reschedules_on_adopter():
    dep, _ = establish_canonical(shards=4)
    mic = dep.mic
    victim = _owning_shard(mic)
    ch = mic.shards[victim].channels[
        next(iter(sorted(mic.shards[victim].channels)))
    ]
    plan = ch.flows[0]
    mid = len(plan.walk) // 2
    # Fail an interior hop, then kill the owner while its repair is in
    # flight (advance in small steps until the repair process has begun).
    dep.net.set_link_state(plan.walk[mid - 1], plan.walk[mid], False)
    deadline = dep.sim.now + 2.0
    while not mic.shards[victim].repairing and dep.sim.now < deadline:
        dep.run_for(0.002)
    assert mic.shards[victim].repairing, "repair never started"
    mic.crash_shard(victim)
    dep.net.set_link_state(plan.walk[mid - 1], plan.walk[mid], True)
    _settle(dep)

    assert mic.live_channels == 3
    assert mic.parked_flows == 0
    assert mic.repairs_rescheduled + mic.flows_reparked >= 1, (
        "the crash was supposed to interrupt an in-flight repair"
    )
    assert mic.verify().violations == []


def test_rejoin_restores_eligibility_without_failback():
    dep, _ = establish_canonical(shards=4)
    mic = dep.mic
    victim = _owning_shard(mic)
    before = {
        s.shard_id: sorted(s.channels) for s in mic.shards
        if s.shard_id != victim
    }
    mic.crash_shard(victim)
    dep.run_for(0.5)
    mic.rejoin_shard(victim)
    assert mic.alive_shards() == (0, 1, 2, 3)
    # No fail-back: the rejoined shard owns nothing until new channels
    # arrive; the adopters keep what they adopted.
    assert not mic.shards[victim].channels
    for shard_id, had in before.items():
        assert set(had) <= set(mic.shards[shard_id].channels)
    # Crashing an already-dead shard is a no-op; killing every shard isn't
    # allowed.
    mic.crash_shard(victim)  # alive again -> this kills it
    mic.crash_shard(victim)  # no-op: already dead
    assert mic.failovers == 2


def test_cannot_crash_the_last_shard():
    dep, _ = establish_canonical(shards=2)
    mic = dep.mic
    mic.crash_shard(0)
    with pytest.raises(RuntimeError, match="last alive shard"):
        mic.crash_shard(1)
    # The refusal left everything as it was: shard 1 still serves.
    assert mic.alive_shards() == (1,)
    assert [s.alive for s in mic.shards] == [False, True]
    assert mic.failovers == 1
    assert len(mic.shards[1].channels) == mic.live_channels == 3
    mic.rejoin_shard(0)
    assert mic.alive_shards() == (0, 1)


def test_shard_crash_spec_requires_sharded_control_plane():
    dep, _ = establish_canonical()  # unsharded
    sched = FaultSchedule(seed=0)
    sched.shard_crash(0, at_s=1.0)
    with pytest.raises(ValueError, match="sharded control plane"):
        sched.attach(dep.net, dep.ctrl)

    dep2, _ = establish_canonical(shards=2)
    sched2 = FaultSchedule(seed=0)
    sched2.shard_crash(7, at_s=1.0)
    with pytest.raises(ValueError, match="outside the cluster"):
        sched2.attach(dep2.net, dep2.ctrl)
    with pytest.raises(ValueError):
        ShardCrash(shard=-1, at_s=1.0).validate()


def test_serialized_cpu_model_still_verifies():
    dep, _ = establish_canonical(
        shards=2,
        mic_kwargs={"cpu_model": "serialized", "flowmod_cpu_s": 100e-6},
    )
    mic = dep.mic
    assert mic.live_channels == 3
    assert mic.cpu_busy_s > 0
    assert mic.verify().violations == []


def test_shard_crash_scorecard_converges():
    """The acceptance run: seed-0 chaos on a 4-shard control plane (the
    default plan crashes the shard owning channel 0 mid-repair and rejoins
    it) ends with zero permanently-parked flows and a passing verifier."""
    card, dep = run_chaos(seed=0, shards=4)
    cp = card["controlplane"]
    assert cp["shards"] == 4
    assert cp["shards_alive"] == 4, "the crashed shard rejoined"
    assert cp["failovers"] == 1
    assert cp["channels_adopted"] >= 1
    assert card["repair"]["parked_remaining"] == 0
    assert card["verification"]["ok"], "post-convergence verify failed"
    assert dep.mic.live_channels == 3
    # The shard-crash fault actually appears in the timeline.
    events = [e["event"] for e in card["faults"]["timeline"]]
    assert any("controller shard" in e and "crash" in e for e in events)


# -- requests and expiry across a crash and a rejoin --------------------------
def _open(dep, opener):
    """Run one opener generator to completion; returns its value."""
    proc = dep.sim.process(opener)
    dep.run(until=proc)
    return proc.value


def _crash_and_rejoin_home(dep, host="h1"):
    """Crash ``host``'s owning shard and rejoin it at once: the edge switch
    goes back to its old owner, the adopted channels stay on the adopter."""
    mic = dep.mic
    home = mic.shard_of_host(host)
    mic.crash_shard(home.shard_id)
    mic.rejoin_shard(home.shard_id)
    assert mic.shard_of_host(host) is home
    return home


def test_shutdown_after_rejoin_reaches_the_adopted_channel():
    dep = deploy_mic(fat_tree(4), seed=0, shards=2)
    endpoint = dep.endpoint("h1")
    sock = _open(dep, endpoint.connect_datagram("h16", service_port=7001))
    home = _crash_and_rejoin_home(dep)
    assert sock.channel_id not in home.channels  # held by the adopter
    _open(dep, endpoint.shutdown(sock))
    dep.run_for(1.0)
    assert dep.mic.live_channels == 0
    assert dep.mic.rule_footprint() == {}


def test_notify_after_rejoin_keeps_the_adopted_channel_alive():
    dep = deploy_mic(fat_tree(4), seed=0, shards=2,
                     mic_kwargs={"idle_timeout_s": 1.0})
    server = dep.server("h16", 80)

    def accept():
        yield server.accept()

    dep.sim.process(accept())
    endpoint = dep.endpoint("h1")
    endpoint.notify_interval_s = 0.25
    _open(dep, endpoint.connect("h16", service_port=80))
    _crash_and_rejoin_home(dep)
    dep.run_for(5.0)
    # The notifies are served by the rejoined shard; they must still
    # reach the adopter's channel, or its idle expiry kills it.
    assert dep.mic.live_channels == 1


def test_idle_expiry_runs_on_a_rejoined_shard():
    dep = deploy_mic(fat_tree(4), seed=0, shards=2,
                     mic_kwargs={"idle_timeout_s": 1.0})
    home = dep.mic.shard_of_host("h1")
    dep.mic.crash_shard(home.shard_id)
    dep.run_for(1.5)  # an expiry tick lands while the shard is dead
    dep.mic.rejoin_shard(home.shard_id)
    sock = _open(dep, dep.endpoint("h1").connect_datagram(
        "h16", service_port=7001))
    assert sock.channel_id in home.channels
    dep.run_for(10.0)
    assert dep.mic.live_channels == 0


_ORPHAN = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1 step B: a shard that dies between push and settle "
    "orphans what it pushed (docs/resilience.md Known limits)",
)


@pytest.mark.parametrize("gap_s", [
    0.0,
    0.0005,
    pytest.param(0.001, marks=_ORPHAN),
    pytest.param(0.0015, marks=_ORPHAN),
    pytest.param(0.002, marks=_ORPHAN),
    0.005,
])
def test_crashing_the_adopter_mid_repair_leaves_no_orphan(gap_s):
    """Kill a repairing shard, then its adopter ``gap_s`` later.

    The reproducer of the in-flight-push orphan: at a gap of 1 to 2 ms the
    adopter dies between pushing and settling the repair it re-drove, and
    ``verify()`` reports three rules no live intent owns
    (``registry-mismatch``).
    """
    dep, _ = establish_canonical(shards=4)
    mic = dep.mic
    victim = mic.shards[_owning_shard(mic)]
    cid = min(victim.channels)
    walk = victim.channels[cid].flows[0].walk
    hop = walk[len(walk) // 2 - 1:len(walk) // 2 + 1]
    dep.net.set_link_state(*hop, False)
    deadline = dep.sim.now + 2.0
    while not victim.repairing and dep.sim.now < deadline:
        dep.run_for(0.002)
    assert victim.repairing, "repair never started"
    mic.crash_shard(victim.shard_id)
    if gap_s:
        dep.run_for(gap_s)
    mic.crash_shard(mic.shard_of_channel(cid).shard_id)
    dep.net.set_link_state(*hop, True)
    dep.run_for(5.0)
    assert mic.live_channels == 3
    assert [v.format() for v in mic.verify().violations] == []


@_ORPHAN
def test_crashing_a_repairing_shard_during_a_link_flap_leaves_no_orphan():
    """Kill a shard mid-repair while the link it repairs around flaps.

    The second shape of the in-flight-push orphan, with one crash: a 50 ms
    flap of the channel's middle hop starts the repair, the shard dies
    once ``repairing``, and ``verify()`` reports six rules no live intent
    owns (``registry-mismatch`` on c1, p0a0 and p3a0; channel 1, hop
    p0a1–c4).
    """
    dep, _ = establish_canonical(shards=4)
    mic = dep.mic
    victim = mic.shards[_owning_shard(mic)]
    walk = victim.channels[min(victim.channels)].flows[0].walk
    hop = walk[len(walk) // 2 - 1:len(walk) // 2 + 1]
    sched = FaultSchedule(seed=0)
    sched.link_flap(*hop, at_s=dep.sim.now, down_for_s=0.05)
    sched.attach(dep.net, dep.ctrl)
    deadline = dep.sim.now + 2.0
    while not victim.repairing and dep.sim.now < deadline:
        dep.run_for(0.002)
    assert victim.repairing, "repair never started"
    mic.crash_shard(victim.shard_id)
    dep.run_for(5.0)
    assert mic.live_channels == 3
    assert [v.format() for v in mic.verify().violations] == []
