"""Edge cases and failure paths of the Mimic Controller."""

import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bench import hybrid_scenario, run_hybrid_scenario
from repro.core import MimicController, MC_IP, MC_PORT, McReply, McRequest, deploy_mic
from repro.core.controller import EstablishError
from repro.crypto import Key, seal
from repro.faults import FaultSchedule, chaos, run_chaos
from repro.net import Network, fat_tree, ip, linear
from repro.sdn import Controller, L3ShortestPathApp, TopologyView
from tests.faults.orphans import orphan_mic_state


def build(topo=None, seed=0, controller_kwargs=None, **kw):
    net = Network(topo or fat_tree(4), seed=seed)
    ctrl = Controller(net, **(controller_kwargs or {}))
    mic = ctrl.register(MimicController(**kw))
    ctrl.register(L3ShortestPathApp())
    return net, ctrl, mic


def run_gen(net, gen):
    proc = net.sim.process(gen)
    net.run(until=proc)
    return proc.value


class TestEstablishValidation:
    def test_bad_counts(self):
        net, ctrl, mic = build()
        with pytest.raises(EstablishError):
            run_gen(net, mic.establish("h1", "h2", service_port=80, n_flows=0))
        with pytest.raises(EstablishError):
            run_gen(net, mic.establish("h1", "h2", service_port=80, n_mns=0))

    def test_bad_counts_are_refused_before_planning(self):
        net, ctrl, mic = build()
        for bad in ({"decoys": math.nan}, {"decoys": -1}, {"n_mns": 1.5},
                    {"n_flows": 2.0}):
            name = next(iter(bad))
            with pytest.raises(EstablishError, match=f"integer {name}"):
                run_gen(net, mic.establish("h1", "h16", service_port=80, **bad))
        assert "mic.channel" not in net.sim._ids

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -1e-4])
    def test_bad_flowmod_cost_is_refused_at_construction(self, cost):
        with pytest.raises(ValueError, match="flowmod_cpu_s"):
            MimicController(cpu_model="serialized", flowmod_cpu_s=cost)

    def test_address_responder_requires_port(self):
        net, ctrl, mic = build()
        with pytest.raises(EstablishError, match="service_port"):
            run_gen(net, mic.establish("h1", net.host("h16").ip))

    def test_unknown_address(self):
        net, ctrl, mic = build()
        with pytest.raises(EstablishError, match="no host"):
            run_gen(net, mic.establish("h1", ip("10.99.99.99"), service_port=80))

    def test_bad_responder_type(self):
        net, ctrl, mic = build()
        with pytest.raises(EstablishError):
            run_gen(net, mic.establish("h1", 12345, service_port=80))

    def test_hidden_service_registration_validates_host(self):
        net, ctrl, mic = build()
        with pytest.raises(ValueError):
            mic.register_hidden_service("svc", "ghost-host", 80)

    def test_too_many_mns_for_tiny_topology(self):
        net, ctrl, mic = build(linear(1, hosts_per_switch=2))
        with pytest.raises((EstablishError, ValueError)):
            run_gen(net, mic.establish("h1", "h2", service_port=80, n_mns=6))

    def test_rollback_releases_ids_on_failure(self):
        net, ctrl, mic = build(linear(1, hosts_per_switch=2))
        live_before = mic.planner.flow_ids.live_count
        with pytest.raises(Exception):
            run_gen(net, mic.establish("h1", "h2", service_port=80,
                                       n_flows=3, n_mns=6))
        assert mic.planner.flow_ids.live_count == live_before
        assert mic.planner.registry.total_keys() == 0


#: numbers the controllers take at construction (the rest are establish's)
MC_PARAMS = ("flowmod_cpu_s", "idle_timeout_s", "park_retry_s")
CONTROLLER_PARAMS = ("ack_timeout_s", "max_install_retries")
#: numbers ``deploy_mic`` takes, refused before it builds anything
DEPLOY_PARAMS = ("seed", "shards")
#: numbers ``run_chaos`` takes, refused before it deploys
CHAOS_PARAMS = ("max_settle_s", "detection_latency_s", "n_mns", "decoys")
#: numbers ``run_hybrid_scenario`` takes, refused before it builds the fabric
HYBRID_PARAMS = ("channels", "time_limit_s", "sample_rate", "epoch_s", "payload_bytes")
#: the routing view's path cap, refused at construction; a huge int is a
#: bad number only there (any other count would be taken literally)
VIEW_PARAM = "TopologyView:max_equal_cost_paths"
HUGE = 2**80


def _view_works_or_fails_at_construction(value):
    try:
        view = TopologyView(fat_tree(4), max_equal_cost_paths=value)
    except ValueError:
        assert not (isinstance(value, int) and value >= 1)
        return
    paths = view.equal_cost_paths("h1", "h16")
    assert 1 <= len(paths) <= value and view.shortest_path("h1", "h16") in paths


def _chaos_works_or_fails_before_deploying(param, value):
    deployed = []

    def deploy(*args, **kwargs):
        deployed.append(kwargs)
        return deploy_mic(*args, **kwargs)

    with mock.patch.object(chaos, "deploy_mic", deploy):
        try:
            card, dep = run_chaos(n_channels=1, schedule=FaultSchedule(seed=0),
                                  **{param: value})
        except ValueError:
            assert not deployed
            return
    assert card["verification"]["ok"] and dep.mic.live_channels == 1


def _hybrid_works_or_fails_before_building(param, value):
    built = []

    def network(*args, **kwargs):
        built.append(args)
        return Network(*args, **kwargs)

    kwargs = {"k": 4, "channels": 4, "payload_bytes": 20_000, "time_limit_s": 5.0,
              param: value}
    with mock.patch.object(hybrid_scenario, "Network", network):
        try:
            result = run_hybrid_scenario(**kwargs)
        except ValueError:
            assert not built
            return
    assert result.fluid_finished + result.packet_finished == result.lanes == 4


@settings(max_examples=150, deadline=None)
@given(
    param=st.sampled_from([
        *MC_PARAMS, *CONTROLLER_PARAMS, *DEPLOY_PARAMS, "decoys", "n_mns", "n_flows",
        *(f"run_chaos:{name}" for name in CHAOS_PARAMS),
        *(f"run_hybrid_scenario:{name}" for name in HYBRID_PARAMS), VIEW_PARAM,
    ]),
    value=st.sampled_from([0, -1, math.nan, math.inf, 1.5, HUGE]),
)
def test_a_bad_number_works_or_fails_before_any_simulated_work(param, value):
    """A bad cost, timeout, period, retry budget, seed, shard count or path
    cap is refused at construction, ``run_chaos``'s counts and periods
    before it deploys and ``run_hybrid_scenario``'s before it builds the
    fabric; a bad count before the establish draws a number,
    mints an id or touches a table.  Whatever gets through must grant a
    channel (a path cap: route)."""
    assume(value != HUGE or param == VIEW_PARAM)
    if param == VIEW_PARAM:
        return _view_works_or_fails_at_construction(value)
    if param.startswith("run_chaos:"):
        return _chaos_works_or_fails_before_deploying(param.split(":")[1], value)
    if param.startswith("run_hybrid_scenario:"):
        return _hybrid_works_or_fails_before_building(param.split(":")[1], value)
    kwargs = {"cpu_model": "serialized"}
    controller_kwargs = {}
    deploy = {}
    request = {"decoys": 1}
    if param in MC_PARAMS:
        kwargs[param] = value
    elif param in CONTROLLER_PARAMS:
        controller_kwargs[param] = value
    elif param in DEPLOY_PARAMS:
        deploy[param] = value
    else:
        request[param] = value
    try:
        if deploy:
            dep = deploy_mic(mic_kwargs=kwargs, **deploy)
            net, mic = dep.net, dep.mic
        else:
            net, ctrl, mic = build(controller_kwargs=controller_kwargs, **kwargs)
    except ValueError:
        assert param in MC_PARAMS + CONTROLLER_PARAMS + DEPLOY_PARAMS
        return
    proc = net.sim.process(mic.establish("h1", "h16", service_port=80, **request))
    before = (
        mic.rng.getstate(), {k: repr(v) for k, v in net.sim._ids.items()},
        sum(len(sw.table) for sw in net.switches()),
    )
    try:
        net.run(until=proc)
    except EstablishError:
        after = (
            mic.rng.getstate(), {k: repr(v) for k, v in net.sim._ids.items()},
            sum(len(sw.table) for sw in net.switches()),
        )
        assert param not in MC_PARAMS + CONTROLLER_PARAMS + DEPLOY_PARAMS
        assert after == before and net.sim.now == 0
        return
    assert proc.value.flows and mic.channels


@pytest.mark.parametrize("param, value", [
    # a zero expiry period livelocked the run; -1 / nan raised mid-run
    ("idle_timeout_s", 0), ("idle_timeout_s", -1), ("idle_timeout_s", math.nan),
    ("park_retry_s", 0), ("park_retry_s", math.nan),
    # -1 retries sent nothing; a zero timeout spent every retry at one instant
    ("max_install_retries", -1), ("max_install_retries", 1.5),
    ("ack_timeout_s", 0), ("ack_timeout_s", -1), ("ack_timeout_s", math.nan),
])
def test_a_bad_period_or_retry_budget_is_refused_at_construction(param, value):
    controller_kwargs, kwargs = {}, {}
    (controller_kwargs if param in CONTROLLER_PARAMS else kwargs)[param] = value
    with pytest.raises(ValueError, match=param):
        build(controller_kwargs=controller_kwargs, **kwargs)


def fail_nth_draw(mic, nth):
    """Make the ``nth`` ``draw_segment`` call from now on exhaust its 64
    attempts; returns the function that heals the strategy again."""
    strategy = mic.strategy
    real, calls = strategy.draw_segment, [0]

    def draw_segment(*args, **kwargs):
        calls[0] += 1
        if calls[0] == nth:
            raise EstablishError("could not draw a collision-free m-address")
        return real(*args, **kwargs)

    strategy.draw_segment = draw_segment
    return lambda: setattr(strategy, "draw_segment", real)


class TestFailedPlanLeavesNoTrace:
    """A flow whose plan fails after its first draw gives back everything
    it had acquired: registry keys, the flow id, the source port."""

    #: draws per planned flow at n_mns=3: 4 forward + 4 reverse (+ k-1 aliases)
    DRAWS = {"mic": 8, "frvm": 10}
    #: the failing call within the flow: always after something was drawn
    STAGE = {"forward": 2, "reverse": 6, "alias": 10}

    @pytest.mark.parametrize("flow", [0, 1], ids=["first-flow", "second-flow"])
    @pytest.mark.parametrize("strategy,stage", [
        ("mic", "forward"), ("mic", "reverse"),
        ("frvm", "forward"), ("frvm", "reverse"), ("frvm", "alias"),
    ])
    def test_establish_refused_mid_plan(self, strategy, stage, flow):
        dep = deploy_mic(fat_tree(4), seed=0, mic_kwargs={"strategy": strategy})
        mic = dep.mic
        heal = fail_nth_draw(mic, flow * self.DRAWS[strategy] + self.STAGE[stage])
        with pytest.raises(EstablishError, match="collision-free"):
            run_gen(dep.net, mic.establish(
                "h1", "h16", service_port=80, n_mns=3, n_flows=2))
        assert orphan_mic_state(dep) == {}
        assert mic.planner.flow_ids.live_count == 0 and mic.planner.registry.total_keys() == 0
        heal()
        grant = run_gen(dep.net, mic.establish(
            "h1", "h16", service_port=80, n_mns=3, n_flows=2))
        flows = mic.channels[grant.channel_id].flows
        assert {plan.flow_id for plan in flows} == {0, 1}  # ids were recycled
        assert orphan_mic_state(dep) == {}

    def test_refusal_reaches_the_initiator_and_leaks_nothing(self):
        """The reproduction in the issue: the 6th draw of one request."""
        dep = deploy_mic(fat_tree(4), seed=0)
        fail_nth_draw(dep.mic, 6)
        dep.server("h16", 80)

        def client():
            yield from dep.endpoint("h1").connect("h16", service_port=80, n_mns=3)

        with pytest.raises(Exception, match="collision-free"):
            run_gen(dep.net, client())
        assert dep.mic.planner.registry.owners() == set()
        assert dep.mic.planner.flow_ids.live_count == 0
        assert orphan_mic_state(dep) == {}

    @pytest.mark.parametrize("strategy", ["mic", "frvm"])
    def test_failed_repair_replan_keeps_the_live_flows_identity(self, strategy):
        """A re-plan runs with ``flow_id=`` / ``entry_pin=``: what it did not
        acquire is not its to release — the flow parks with its id and its
        source port still booked, and comes back with both."""
        dep = deploy_mic(fat_tree(4), seed=0, mic_kwargs={"strategy": strategy})
        mic = dep.mic
        grant = run_gen(dep.net, mic.establish(
            "h1", "h16", service_port=80, n_mns=3))
        channel = mic.channels[grant.channel_id]
        before = channel.flows[0]
        heal = fail_nth_draw(mic, 6)
        assert mic.rotate_flow(channel, 0)
        dep.run_for(0.1)
        assert mic.parked_flows == 1
        assert mic.planner.flow_ids.is_live(before.flow_id)
        assert before.entry.sport in mic.planner.used_sports["h1"]
        assert mic.planner.registry.total_keys() == 0  # the half-drawn plan's claims
        assert orphan_mic_state(dep) == {}
        heal()
        dep.run_for(2.0)
        after = channel.flows[0]
        assert mic.parked_flows == 0
        assert (after.flow_id, after.entry) == (before.flow_id, before.entry)
        assert orphan_mic_state(dep) == {}
        mic.teardown(grant.channel_id)
        dep.run_for(0.1)  # the removals are messages: let them land
        assert orphan_mic_state(dep) == {}
        assert mic.planner.used_sports["h1"] == set()


class TestRequestPath:
    def test_garbage_request_ignored(self):
        """A request sealed under the wrong key is dropped silently."""
        net, ctrl, mic = build()
        h1 = net.host("h1")
        wrong_key = Key(999, label="attacker")
        req = McRequest(kind="establish", reply_port=5555, responder="h16",
                        service_port=80)
        pkt = h1.make_packet(MC_IP, proto="udp", sport=5555, dport=MC_PORT,
                             payload=seal(wrong_key, req), payload_size=128)
        h1.send_packet(pkt)
        net.run(until=1.0)
        assert mic.live_channels == 0

    def test_unknown_request_kind_refused(self):
        net, ctrl, mic = build()
        h1 = net.host("h1")
        replies = []
        h1.bind("udp", 5556, lambda _h, p: replies.append(p))
        key = mic.client_key("h1")
        req = McRequest(kind="frobnicate", reply_port=5556)
        pkt = h1.make_packet(MC_IP, proto="udp", sport=5556, dport=MC_PORT,
                             payload=seal(key, req), payload_size=128)
        h1.send_packet(pkt)
        net.run(until=1.0)
        assert len(replies) == 1
        from repro.crypto import unseal

        reply = unseal(key, replies[0].payload)
        assert isinstance(reply, McReply) and not reply.ok

    def test_establish_refusal_is_replied(self):
        net, ctrl, mic = build()
        h1 = net.host("h1")
        replies = []
        h1.bind("udp", 5557, lambda _h, p: replies.append(p))
        key = mic.client_key("h1")
        req = McRequest(kind="establish", reply_port=5557,
                        responder="no-such-service")
        pkt = h1.make_packet(MC_IP, proto="udp", sport=5557, dport=MC_PORT,
                             payload=seal(key, req), payload_size=128)
        h1.send_packet(pkt)
        net.run(until=1.0)
        from repro.crypto import unseal

        reply = unseal(key, replies[0].payload)
        assert not reply.ok and "no-such-service" in reply.error

    def test_non_mc_packets_not_consumed(self):
        """MIC's packet-in hook must leave ordinary traffic to the L3 app."""
        net, ctrl, mic = build()
        h1, h16 = net.host("h1"), net.host("h16")
        got = []
        h16.bind("tcp", 80, lambda _h, p: got.append(p))
        h1.send_packet(h1.make_packet(h16.ip, dport=80, payload_size=1))
        net.run(until=1.0)
        assert len(got) == 1  # L3 app routed it


class TestConfigValidation:
    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            MimicController(mn_strategy="psychic")

    def test_spread_strategy_places_n_mns(self):
        net, ctrl, mic = build(mn_strategy="spread")
        grant = run_gen(net, mic.establish("h1", "h16", service_port=80, n_mns=3))
        plan = mic.channels[grant.channel_id].flows[0]
        assert len(plan.mn_positions) == 3

    def test_mc_cpu_accounting_grows(self):
        net, ctrl, mic = build()
        from repro.core import MicEndpoint, MicServer

        MicServer(net.host("h16"), 80)
        endpoint = MicEndpoint(net.host("h1"), mic)

        def client():
            yield from endpoint.connect("h16", service_port=80)

        run_gen(net, client())
        assert mic.cpu_busy_s > 0
        assert mic.requests_served == 1
