"""Identity belongs to the deployment: two deployments in one process never
see each other.

Every id a run can show — packet uids and content tags, flow-entry ids,
channel / cookie / group ids, key, connection, circuit and frame ids — is
minted from the deployment's own ``Simulator.ids`` namespaces, so what a
deployment simulates cannot depend on what was built before it, or is being
advanced next to it, in the same interpreter.  (The tournament's rerun
byte-identity is ``tests/attacks/test_tournament.py``; it has no reset
block to lean on any more.)
"""

import pytest

from repro.core import deploy_mic
from repro.faults import run_chaos, scorecard_json
from repro.net import Network, fat_tree, leaf_spine
from repro.obs import journeys_to_json
from repro.sdn import Controller, L3ShortestPathApp
from repro.tor import TorClient, TorDirectory, TorRelay
from repro.transport import TcpStack
from tests.anonymity.helpers import intent_snapshot, snapshot_json
from tests.watchers import step_log

CASES = [(s, n) for s in ("mic", "tarn", "frvm") for n in (1, 4)]
STEP_S, STEPS = 0.1, 20
MESSAGE = b"i" * 400


class EchoRun:
    """Two decoyed MIC echoes on one deployment, advanced a step at a time."""

    def __init__(self, topo, strategy, shards, seed, pairs):
        self.dep = dep = deploy_mic(
            topo, seed=seed, journey=True, shards=shards,
            mic_kwargs={"strategy": strategy},
        )
        self.steps = step_log(dep.sim)
        self.echoed = []
        for a, b, port in pairs:
            dep.sim.process(self._server(dep.server(b, port)))
            dep.sim.process(self._client(dep.endpoint(a), b, port))

    def _client(self, endpoint, responder, port):
        stream = yield from endpoint.connect(
            responder, service_port=port, n_mns=3, decoys=1
        )
        stream.send(MESSAGE)
        self.echoed.append((yield from stream.recv_exactly(len(MESSAGE))))

    def _server(self, server):
        stream = yield server.accept()
        stream.send((yield from stream.recv_exactly(len(MESSAGE))))

    def step(self):
        self.dep.run_for(STEP_S)

    def result(self):
        """Everything the run can show an id in."""
        dep = self.dep
        assert self.echoed == [MESSAGE, MESSAGE]
        journeys = journeys_to_json(dep.journey)
        assert journeys["journeys"], "no packet was recorded"
        return (
            self.steps,
            journeys,
            snapshot_json(intent_snapshot(dep)),
        )


def subject(strategy, shards):
    return EchoRun(fat_tree(4), strategy, shards, seed=5,
                   pairs=[("h1", "h16", 80), ("h6", "h11", 81)])


def another(strategy, shards):
    """A different deployment: other topology, strategy, shard count, seed."""
    other = {"mic": "frvm", "tarn": "mic", "frvm": "tarn"}[strategy]
    return EchoRun(leaf_spine(), other, 5 - shards, seed=9,
                   pairs=[("h2", "h7", 90), ("h5", "h1", 91)])


def finish(*runs):
    for _ in range(STEPS):
        for run in runs:
            run.step()
    return [run.result() for run in runs]


@pytest.mark.parametrize("strategy, shards", CASES)
def test_a_deployment_simulates_the_same_alone_after_before_and_beside_another(
    strategy, shards
):
    (solo,) = finish(subject(strategy, shards))
    (other_solo,) = finish(another(strategy, shards))
    assert solo != other_solo
    # after the other one, and (built first) before it
    (after,) = finish(subject(strategy, shards))
    first = subject(strategy, shards)
    second = another(strategy, shards)
    assert finish(second) == [other_solo]
    assert finish(first) == [solo] == [after]
    # interleaved step by step, built in either order
    assert finish(subject(strategy, shards), another(strategy, shards)) == [
        solo, other_solo]
    assert finish(another(strategy, shards), subject(strategy, shards)) == [
        other_solo, solo]


@pytest.mark.parametrize("strategy, shards", CASES)
def test_a_chaos_scorecard_does_not_depend_on_the_run_before_it(strategy, shards):
    def card(seed=0, **kw):
        return scorecard_json(run_chaos(seed=seed, **kw)[0])

    solo = card(strategy=strategy, shards=shards)
    different = card(seed=3, strategy="mic", shards=5 - shards, n_channels=4)
    assert different != solo
    assert card(strategy=strategy, shards=shards) == solo


def test_two_tor_clients_sharing_a_relay_get_distinct_circuits_and_both_transfer():
    """Relays match ``cell.circ_id`` alone, so circuit ids are one
    namespace per deployment, not one per client."""
    net = Network(fat_tree(4))
    ctrl = Controller(net)
    ctrl.register(L3ShortestPathApp()).wire_all_pairs()
    net.run()
    directory = TorDirectory()
    relays = [TorRelay(net.host(f"h{i}"), directory) for i in (5, 6, 7)]
    route = [relay.name for relay in relays]
    listener = TcpStack(net.host("h16")).listen(80)

    def echo(conn):
        data = yield conn.recv(4096)
        conn.send(data)

    def serve():
        while True:
            net.sim.process(echo((yield listener.accept())))

    circ_ids, replies = [], {}

    def transfer(name):
        client = TorClient(net.host(name), directory)
        stream = yield from client.connect(net.host("h16").ip, 80, route=route)
        circ_ids.append(stream.circuit.circ_id)
        yield from stream.send(name.encode() * 50)
        replies[name] = yield from stream.recv_exactly(len(name) * 50)

    net.sim.process(serve())
    for name in ("h1", "h2"):
        net.sim.process(transfer(name))
    net.run(until=20.0)
    assert replies == {"h1": b"h1" * 50, "h2": b"h2" * 50}
    assert sorted(circ_ids) == [1, 2]
