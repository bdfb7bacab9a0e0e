"""Network assembly: turn a :class:`Topology` into live simulated devices.

Owns the simulator, the node registry and the port wiring.
Port numbering: hosts use NIC port 0; switch ports are numbered 1..degree in
the (stable) order the topology lists its edges.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator
from .addresses import IPv4Addr
from .host import Host
from .link import Link
from .node import Node
from .params import DEFAULT_PARAMS, NetParams
from .switch import Switch
from .topology import Topology

__all__ = ["Network"]


class Network:
    """Live instantiation of a topology on a DES kernel."""

    def __init__(
        self,
        topo: Topology,
        params: NetParams = DEFAULT_PARAMS,
        seed: int = 0,
    ):
        topo.validate()
        self.topo = topo
        self.params = params
        self.sim = Simulator(seed=seed)
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        #: (node_name, neighbor_name) -> local port number
        self.port_map: dict[tuple[str, str], int] = {}
        self._ip_index: dict[IPv4Addr, Host] = {}
        #: callbacks invoked as fn(a, b, up) on link state changes
        self.link_listeners: list = []
        #: callbacks invoked as fn(name, up) on switch crash/reboot
        self.switch_listeners: list = []
        self._link_index: dict[tuple[str, str], Link] = {}
        #: optional attached repro.net.hybrid.HybridEngine (None = pure packet)
        self.hybrid = None
        #: the repro.obs.journey.JourneyRecorder whose hooks are live on this
        #: fabric's nodes and channels (None = no journeys recorded)
        self.journey = None
        #: the attached repro.obs.Observer (None = nothing observed); its
        #: wrapper on every host's ``receive`` is what observes
        self.observer = None
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        g = self.topo.graph
        next_port: dict[str, int] = {}
        for name, data in g.nodes(data=True):
            if data["kind"] == "host":
                host = Host(self.sim, name, self.params, data["ip"], data["mac"])
                self.nodes[name] = host
                self._ip_index[data["ip"]] = host
                next_port[name] = 0  # NIC port
            else:
                self.nodes[name] = Switch(self.sim, name, self.params)
                next_port[name] = 1

        for a, b, edata in g.edges(data=True):
            pa, pb = next_port[a], next_port[b]
            next_port[a] += 1
            next_port[b] += 1
            self.port_map[(a, b)] = pa
            self.port_map[(b, a)] = pb
            link = Link(
                self.sim,
                self.nodes[a],
                pa,
                self.nodes[b],
                pb,
                self.params,
                bandwidth_bps=edata.get("bandwidth_bps"),
                delay_s=edata.get("delay_s"),
            )
            self.links.append(link)
            self._link_index[(a, b)] = link
            self._link_index[(b, a)] = link

    # -- lookups ----------------------------------------------------------
    def node(self, name: str) -> Node:
        """Any node by name."""
        return self.nodes[name]

    def host(self, name: str) -> Host:
        """A host by name (TypeError if it is a switch)."""
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise TypeError(f"{name} is not a host")
        return node

    def switch(self, name: str) -> Switch:
        """A switch by name (TypeError if it is a host)."""
        node = self.nodes[name]
        if not isinstance(node, Switch):
            raise TypeError(f"{name} is not a switch")
        return node

    def hosts(self) -> list[Host]:
        """All host devices."""
        return [self.nodes[n] for n in self.topo.hosts()]  # type: ignore[list-item]

    def switches(self) -> list[Switch]:
        """All switch devices."""
        return [self.nodes[n] for n in self.topo.switches()]  # type: ignore[list-item]

    def host_by_ip(self, addr: IPv4Addr) -> Optional[Host]:
        """The host owning an IP address, or None."""
        return self._ip_index.get(addr)

    def port(self, node: str, neighbor: str) -> int:
        """Local port number on ``node`` facing ``neighbor``."""
        return self.port_map[(node, neighbor)]

    def link_between(self, a: str, b: str) -> Link:
        """The link joining two adjacent nodes."""
        return self._link_index[(a, b)]

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        """Bring a link down/up and notify listeners (port-status events)."""
        link = self.link_between(a, b)
        link.set_up(up)
        for listener in list(self.link_listeners):
            listener(a, b, up)

    def set_switch_state(self, name: str, up: bool) -> None:
        """Crash or reboot a switch and notify listeners.

        A crash wipes the flow table, group table, and lookup cache
        (:meth:`Switch.crash`); the chassis then blackholes traffic until
        the matching reboot.  The adjacent links stay physically up — it is
        the controller's job to notice (heartbeat loss / chassis events) and
        to re-sync rules after the reboot.
        """
        sw = self.switch(name)
        if up == sw.alive:
            return
        if up:
            sw.reboot()
        else:
            sw.crash()
        for listener in list(self.switch_listeners):
            listener(name, up)

    # -- measurement helpers -------------------------------------------------
    def total_cpu_busy_s(self) -> float:
        """Sum of CPU-seconds booked across every node."""
        return sum(n.cpu.busy_s for n in self.nodes.values())

    def reset_cpu_meters(self) -> None:
        """Zero every node's CPU meter (start of a window)."""
        now = self.sim.now
        for n in self.nodes.values():
            n.cpu.reset(now)

    def run(self, until=None):
        """Run the simulation (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until)
