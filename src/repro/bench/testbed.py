"""The evaluation testbed (Sec VI).

Recreates the paper's platform: a 4-ary fat-tree (twenty 4-port switches,
16 hosts), a controller running the MIC app plus baseline L3 routing, and a
local Tor deployment (directory + relays on a subset of hosts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core import MicEndpoint, MicServer, MimicController
from ..net import Network, NetParams, Topology, fat_tree
from ..obs import JourneyRecorder, Observer
from ..sdn import Controller, L3ShortestPathApp
from ..tor import TorClient, TorDirectory, TorRelay, TorRelayParams
from ..transport import SslStack, TcpStack

__all__ = ["Testbed"]

#: hosts that run Tor relays in the benches (pod-1 and pod-2 hosts, keeping
#: h1 (client side) and h13..h16 (server side) free)
DEFAULT_RELAY_HOSTS = ("h5", "h6", "h7", "h8", "h9", "h10", "h11")


@dataclass
class Testbed:
    """A fully wired evaluation platform."""

    __test__ = False  # not a pytest test class despite the name

    net: Network
    ctrl: Controller
    mic: MimicController
    l3: L3ShortestPathApp
    directory: TorDirectory
    relays: list[TorRelay]
    #: attached observer when created with ``observe=True``, else None
    obs: Optional[Observer] = None
    #: attached journey recorder when created with ``journey=True``, else None
    journey: Optional[JourneyRecorder] = None

    @classmethod
    def create(
        cls,
        seed: int = 0,
        topo: Optional[Topology] = None,
        params: Optional[NetParams] = None,
        relay_hosts: Sequence[str] = DEFAULT_RELAY_HOSTS,
        pre_wire: bool = True,
        tor_params: Optional[TorRelayParams] = None,
        mic_kwargs: Optional[dict] = None,
        observe: bool = False,
        journey: bool = False,
        journey_kwargs: Optional[dict] = None,
    ) -> "Testbed":
        net = Network(topo or fat_tree(4), params=params or NetParams(), seed=seed)
        ctrl = Controller(net)
        mic = ctrl.register(MimicController(**(mic_kwargs or {})))
        l3 = ctrl.register(L3ShortestPathApp())
        obs = Observer.attach(net, mic=mic, controller=ctrl) if observe else None
        rec = None
        if journey:
            rec = JourneyRecorder.attach(net, **(journey_kwargs or {}))
            if obs is not None:
                obs.journey = rec
        if pre_wire:
            # let the bundles land before any measurement
            net.run(until=net.sim.all_of(l3.wire_all_pairs()))
        directory = TorDirectory()
        relay_params = tor_params or TorRelayParams()
        relays = [
            TorRelay(net.host(h), directory, params=relay_params)
            for h in relay_hosts
        ]
        return cls(net, ctrl, mic, l3, directory, relays, obs=obs, journey=rec)

    # -- convenience constructors for protocol endpoints --------------------
    def tcp_stack(self, host_name: str) -> TcpStack:
        """A fresh TCP stack on a host."""
        return TcpStack(self.net.host(host_name))

    def ssl_stack(self, host_name: str) -> SslStack:
        """A fresh SSL-over-TCP stack on a host."""
        return SslStack(self.tcp_stack(host_name))

    def mic_endpoint(self, host_name: str) -> MicEndpoint:
        """A MIC user-end module on a host."""
        return MicEndpoint(self.net.host(host_name), self.mic)

    def mic_server(self, host_name: str, port: int) -> MicServer:
        """A MIC server on a host/port."""
        return MicServer(self.net.host(host_name), port)

    def tor_client(self, host_name: str) -> TorClient:
        """A Tor onion proxy on a host."""
        return TorClient(self.net.host(host_name), self.directory)

    def run(self, until=None):
        """Run the testbed's simulator."""
        return self.net.run(until=until)

    def reset_meters(self) -> None:
        """Zero all CPU meters (network + MC)."""
        self.net.reset_cpu_meters()
        for shard in self.mic.shards:
            shard.cpu_busy_s = 0.0
