"""Fault spec validation and schedule compilation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import deploy_mic
from repro.faults import (
    ControlPartition,
    FaultSchedule,
    LinkFlap,
    RuleInstallLoss,
    SwitchCrash,
)
from repro.net import Network, linear


class TestSpecValidation:
    def test_link_flap_windows(self):
        flap = LinkFlap("a", "b", at_s=1.0, down_for_s=0.5, period_s=2.0, count=3)
        flap.validate()
        assert list(flap.windows()) == [(1.0, 1.5), (3.0, 3.5), (5.0, 5.5)]

    def test_one_shot_flap_single_window(self):
        flap = LinkFlap("a", "b", at_s=0.25, down_for_s=1.0)
        flap.validate()
        assert list(flap.windows()) == [(0.25, 1.25)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(at_s=-1.0, down_for_s=1.0),
            dict(at_s=0.0, down_for_s=0.0),
            dict(at_s=0.0, down_for_s=1.0, count=0),
            dict(at_s=0.0, down_for_s=1.0, period_s=0.5, count=2),
            dict(at_s=0.0, down_for_s=1.0, count=2),  # count>1 needs period
        ],
    )
    def test_link_flap_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LinkFlap("a", "b", **kwargs).validate()

    def test_switch_crash(self):
        crash = SwitchCrash("s1", at_s=2.0, down_for_s=1.0)
        crash.validate()
        assert list(crash.windows()) == [(2.0, 3.0)]
        with pytest.raises(ValueError):
            SwitchCrash("s1", at_s=2.0, down_for_s=0.0).validate()

    def test_control_partition_window(self):
        part = ControlPartition("s1", at_s=1.0, duration_s=2.0)
        part.validate()
        assert not part.active(0.5, "s1")
        assert part.active(1.0, "s1")
        assert part.active(2.9, "s1")
        assert not part.active(3.0, "s1")  # half-open window
        assert not part.active(1.5, "s2")  # other switch unaffected

    def test_rule_install_loss_scope_and_window(self):
        loss = RuleInstallLoss(at_s=1.0, duration_s=1.0, loss_prob=0.5,
                               switches=("s1", "s3"))
        loss.validate()
        assert loss.active(1.5, "s1")
        assert not loss.active(1.5, "s2")
        assert not loss.active(2.5, "s1")
        everywhere = RuleInstallLoss(at_s=0.0, duration_s=1.0, delay_prob=1.0,
                                     extra_delay_s=0.01)
        everywhere.validate()
        assert everywhere.active(0.5, "anything")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(loss_prob=1.5),
            dict(delay_prob=-0.1),
            dict(loss_prob=0.5, extra_delay_s=-1.0),
            dict(),  # neither loss nor delay
        ],
    )
    def test_rule_install_loss_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RuleInstallLoss(at_s=0.0, duration_s=1.0, **kwargs).validate()

    def test_describe_is_informative(self):
        assert "a<->b" in LinkFlap("a", "b", 1.0, 0.5).describe()
        assert "s1" in SwitchCrash("s1", 1.0, 0.5).describe()
        assert "s1" in ControlPartition("s1", 1.0, 0.5).describe()
        assert "p=0.3" in RuleInstallLoss(0.0, 1.0, loss_prob=0.3).describe()


class TestSchedule:
    def test_builders_validate_and_collect(self):
        sched = FaultSchedule(seed=4)
        sched.link_flap("a", "b", at_s=1.0, down_for_s=0.5)
        sched.switch_crash("s1", at_s=2.0, down_for_s=1.0)
        sched.control_partition("s1", at_s=3.0, duration_s=1.0)
        sched.rule_install_loss(at_s=0.0, duration_s=5.0, loss_prob=0.5)
        assert len(sched) == 4
        assert sched.needs_fault_plane
        assert "seed=4" in sched.describe()
        with pytest.raises(ValueError):
            sched.link_flap("a", "b", at_s=-1.0, down_for_s=0.5)

    def test_timed_only_schedule_needs_no_fault_plane(self):
        sched = FaultSchedule()
        sched.link_flap("a", "b", at_s=1.0, down_for_s=0.5)
        sched.switch_crash("s1", at_s=2.0, down_for_s=1.0)
        assert not sched.needs_fault_plane

    def test_timeline_is_sorted(self):
        sched = FaultSchedule()
        sched.switch_crash("s1", at_s=5.0, down_for_s=1.0)
        sched.link_flap("a", "b", at_s=1.0, down_for_s=0.5, period_s=3.0, count=2)
        sched.control_partition("s2", at_s=2.0, duration_s=1.0)
        times = [t for t, _desc in sched.timeline()]
        assert times == sorted(times)
        assert len(times) == 2 * 2 + 2 + 2

    def test_attach_schedules_events_and_is_single_shot(self):
        net = Network(linear(2, hosts_per_switch=1), seed=0)
        sched = FaultSchedule()
        sched.link_flap("s1", "s2", at_s=0.5, down_for_s=0.25)
        sched.attach(net)
        assert sched.injected_events == 2
        with pytest.raises(RuntimeError):
            sched.attach(net)
        with pytest.raises(RuntimeError):
            sched.link_flap("s1", "s2", at_s=2.0, down_for_s=0.25)

        link = net.link_between("s1", "s2")
        net.run(until=0.6)
        assert not link.forward.up and not link.reverse.up
        net.run(until=1.0)
        assert link.forward.up and link.reverse.up

    def test_flowmod_fate_is_seeded(self):
        def draws(seed):
            net = Network(linear(2, hosts_per_switch=1), seed=0)
            sched = FaultSchedule(seed=seed)
            sched.rule_install_loss(at_s=0.0, duration_s=10.0, loss_prob=0.5,
                                    delay_prob=0.5, extra_delay_s=0.001)
            sched.attach(net)
            return [sched.flowmod_fate("s1") for _ in range(64)]

        assert draws(11) == draws(11)
        assert draws(11) != draws(12)

    def test_partition_check_is_rng_free(self):
        net = Network(linear(2, hosts_per_switch=1), seed=0)
        sched = FaultSchedule()
        sched.control_partition("s1", at_s=0.0, duration_s=10.0)
        sched.rule_install_loss(at_s=0.0, duration_s=10.0, loss_prob=0.5)
        sched.attach(net)
        state = sched.rng.getstate()
        assert sched.packet_in_blocked("s1")
        assert not sched.packet_in_blocked("s2")
        assert sched.rng.getstate() == state


#: every time or duration each builder takes, with a value that works
TIMED = {
    "link_flap": {"at_s": 0.5, "down_for_s": 0.2, "period_s": None},
    "switch_crash": {"at_s": 0.5, "down_for_s": 0.2},
    "control_partition": {"at_s": 0.5, "duration_s": 0.2},
    "rule_install_loss": {"at_s": 0.5, "duration_s": 0.2, "extra_delay_s": 0.001},
    "shard_crash": {"at_s": 0.5, "down_for_s": 0.2},
}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(b, p) for b, params in TIMED.items() for p in params]),
    value=st.sampled_from([0, -1, math.nan, math.inf, 10**400]),
)
def test_a_bad_time_works_or_fails_before_any_simulated_work(case, value):
    """A time or duration that is negative, zero where it must not be, nan,
    infinite or past the float range is refused by its builder, naming the
    parameter, before anything is scheduled; whatever gets through runs."""
    builder, param = case
    dep = deploy_mic(seed=0, shards=2)
    link = dep.net.links[0].forward
    schedule = FaultSchedule(seed=0)
    kwargs = dict(TIMED[builder], **{param: value})
    build = {
        "link_flap": lambda: schedule.link_flap(link.src.name, link.dst.name, **kwargs),
        "switch_crash": lambda: schedule.switch_crash(link.src.name, **kwargs),
        "control_partition": lambda: schedule.control_partition(link.src.name, **kwargs),
        "rule_install_loss": lambda: schedule.rule_install_loss(loss_prob=0.5, **kwargs),
        "shard_crash": lambda: schedule.shard_crash(1, **kwargs),
    }[builder]
    try:
        build()
    except ValueError as err:
        assert param in str(err)
        assert len(schedule) == 0
        return
    schedule.attach(dep.net, dep.ctrl)
    dep.run_for(2.0)
    assert dep.sim.now == 2.0
