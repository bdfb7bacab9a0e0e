"""The evaluation testbed (Sec VI).

Recreates the paper's platform: a 4-ary fat-tree (twenty 4-port switches,
16 hosts), a controller running the MIC app plus baseline L3 routing, and a
local Tor deployment (directory + relays on a subset of hosts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core import MicDeployment, deploy_mic
from ..net import NetParams, Topology
from ..tor import TorClient, TorDirectory, TorRelay, TorRelayParams
from ..transport import SslStack, TcpStack

__all__ = ["Testbed"]

#: hosts that run Tor relays in the benches (pod-1 and pod-2 hosts, keeping
#: h1 (client side) and h13..h16 (server side) free)
DEFAULT_RELAY_HOSTS = ("h5", "h6", "h7", "h8", "h9", "h10", "h11")


@dataclass(kw_only=True)
class Testbed(MicDeployment):
    """A fully wired evaluation platform: a MIC deployment plus Tor."""

    __test__ = False  # not a pytest test class despite the name

    directory: TorDirectory = field(default_factory=TorDirectory)
    relays: list[TorRelay] = field(default_factory=list)

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
        # pre-wired by default: the bundles land before any measurement
        bed = cls(**vars(deploy_mic(
            topo, seed=seed, params=params, pre_wire=pre_wire,
            mic_kwargs=mic_kwargs, observe=observe, journey=journey,
            journey_kwargs=journey_kwargs,
        )))
        relay_params = tor_params or TorRelayParams()
        bed.relays = [
            TorRelay(bed.net.host(h), bed.directory, params=relay_params)
            for h in relay_hosts
        ]
        return bed

    # -- convenience constructors for protocol endpoints --------------------
    def tcp_stack(self, host_name: str) -> TcpStack:
        """A fresh TCP stack on a host."""
        return TcpStack(self.net.host(host_name))

    def ssl_stack(self, host_name: str) -> SslStack:
        """A fresh SSL-over-TCP stack on a host."""
        return SslStack(self.tcp_stack(host_name))

    def tor_client(self, host_name: str) -> TorClient:
        """A Tor onion proxy on a host."""
        return TorClient(self.net.host(host_name), self.directory)

    def reset_meters(self) -> None:
        """Zero all CPU meters (network + MC)."""
        self.net.reset_cpu_meters()
        for shard in self.mic.shards:
            shard.cpu_busy_s = 0.0
