"""One-call MIC deployment.

Examples, tests and downstream users all assemble the same stack: a
network, a controller, the MIC app and baseline routing.  ``deploy_mic``
does it in one line and returns a :class:`MicDeployment` facade with the
common conveniences (endpoints, servers, hidden services, running).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.network import Network
from ..net.params import NetParams
from ..net.topology import Topology, fat_tree
from ..obs import JourneyRecorder, Observer
from ..sdn.controller import Controller
from ..sdn.l3app import L3ShortestPathApp
from .client import MicEndpoint, MicServer
from .commonflows import CommonFlowTagger
from .controller import MimicController

__all__ = ["MicDeployment", "deploy_mic"]


@dataclass
class MicDeployment:
    """A ready-to-use MIC-enabled network."""

    net: Network
    ctrl: Controller
    mic: MimicController
    l3: L3ShortestPathApp
    #: attached observer when deployed with ``observe=True``, else None
    obs: Optional[Observer] = None
    #: attached journey recorder when deployed with ``journey=True``, else None
    journey: Optional[JourneyRecorder] = None

    @property
    def sim(self):
        """The deployment's simulator."""
        return self.net.sim

    # -- conveniences ----------------------------------------------------
    def endpoint(self, host_name: str) -> MicEndpoint:
        """The user-end module for a host (the initiator side)."""
        return MicEndpoint(self.net.host(host_name), self.mic)

    def server(self, host_name: str, port: int) -> MicServer:
        """A MIC-aware server on a host (the responder side)."""
        return MicServer(self.net.host(host_name), port)

    def hidden_service(self, nickname: str, host_name: str, port: int) -> MicServer:
        """Register a hidden service and start its server in one step."""
        self.mic.register_hidden_service(nickname, host_name, port)
        return self.server(host_name, port)

    def tag_common_flows(self) -> CommonFlowTagger:
        """CF-tag every common-flow path installed so far."""
        tagger = CommonFlowTagger(self.mic)
        tagger.tag_all_recorded(self.l3)
        return tagger

    def run(self, until=None):
        """Run the simulation (see :meth:`Simulator.run`)."""
        return self.net.run(until=until)

    def run_for(self, seconds: float):
        """Advance the clock by ``seconds`` from now."""
        return self.net.run(until=self.sim.now + seconds)


def deploy_mic(
    topo: Optional[Topology] = None,
    seed: int = 0,
    params: Optional[NetParams] = None,
    pre_wire: bool = False,
    mic_kwargs: Optional[dict] = None,
    observe: bool = False,
    journey: bool = False,
    journey_kwargs: Optional[dict] = None,
    controller_kwargs: Optional[dict] = None,
    faults=None,
    shards: int = 1,
) -> MicDeployment:
    """Stand up a MIC-enabled network on ``topo`` (default: the paper's
    4-ary fat-tree).

    ``pre_wire=True`` proactively installs baseline routes for every host
    pair (no packet-ins later) and runs only until those bundles land, so
    an attached fault plan is still ahead; a bundle that cannot land
    raises its ``TableFullError`` / ``InstallLostError``, naming the
    switch.  Otherwise the L3 app wires reactively.
    ``observe=True`` attaches a :class:`repro.obs.Observer` before any
    traffic runs; it is exposed as the deployment's ``obs`` field.
    ``journey=True`` additionally attaches a
    :class:`repro.obs.JourneyRecorder` (``journey_kwargs`` forwards
    ``sample_rate``/``predicate``/``flight``), exposed as ``journey`` (and
    as ``net.journey``).
    ``controller_kwargs`` forwards failure-detection and install-retry
    knobs to the :class:`~repro.sdn.controller.Controller`; ``faults``
    attaches a :class:`repro.faults.FaultSchedule` (its injected events
    are scheduled before any traffic runs).
    ``shards`` is the Mimic Controller's shard count (default 1, the
    unsharded MC; ``shards=0`` raises ``ValueError``); with two or more,
    channels and install fan-out spread over the shards by switch
    ownership and a shard can be crashed (see
    :meth:`~repro.core.controller.MimicController.crash_shard`).
    ``mic_kwargs`` may also set the shards' ``cpu_model`` and
    ``flowmod_cpu_s``.
    """
    net = Network(topo or fat_tree(4), params=params or NetParams(), seed=seed)
    ctrl = Controller(net, **(controller_kwargs or {}))
    mic = ctrl.register(MimicController(shards=shards, **(mic_kwargs or {})))
    l3 = ctrl.register(L3ShortestPathApp())
    obs = Observer.attach(net, mic=mic, controller=ctrl) if observe else None
    rec = JourneyRecorder.attach(net, **(journey_kwargs or {})) if journey else None
    if faults is not None:
        faults.attach(net, ctrl)
    if pre_wire:
        net.run(until=net.sim.all_of(l3.wire_all_pairs()))
    return MicDeployment(net=net, ctrl=ctrl, mic=mic, l3=l3, obs=obs, journey=rec)
