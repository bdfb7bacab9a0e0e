"""Topology builders: fat-tree, leaf-spine, BCube, linear chain.

Each builder returns a :class:`Topology` — a :class:`~repro.net.graph.Graph`
annotated with node kinds plus IP/MAC assignments for hosts — which
:class:`repro.net.network.Network` turns into live simulated devices.

The paper's evaluation fabric is the 4-ary fat-tree of Fig 5: twenty 4-port
switches (4 core + 8 aggregation + 8 edge) and 16 hosts; ``fat_tree(4)``
reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .addresses import IPv4Addr, MacAddr
from .graph import Graph, is_connected

__all__ = ["Topology", "fat_tree", "leaf_spine", "bcube", "linear"]

_HOST_IP_BASE = IPv4Addr.parse("10.0.0.0")
_HOST_MAC_BASE = 0x020000000000


@dataclass
class Topology:
    """A named graph of hosts and switches.

    ``graph`` nodes carry attribute ``kind`` ∈ {"host", "switch"}; host nodes
    additionally carry ``ip`` and ``mac``.  Switch nodes may carry ``layer``
    (core/agg/edge/…) for topology-aware logic and plotting.  Nodes enter
    through :meth:`add_switch` / :meth:`add_host` only, which also keep the
    host and switch lists; a name in use is a ``ValueError``.
    """

    name: str
    graph: Graph = field(default_factory=Graph, init=False)
    _hosts: list[str] = field(default_factory=list, init=False, repr=False)
    _switches: list[str] = field(default_factory=list, init=False, repr=False)

    # -- construction helpers ---------------------------------------------
    def add_switch(self, name: str, **attrs) -> str:
        """Add a switch node; returns its name."""
        self.graph.add_node(name, kind="switch", **attrs)
        self._switches.append(name)
        return name

    def add_host(self, name: str, **attrs) -> str:
        """Add a host node with auto-assigned IP/MAC; returns its name."""
        index = len(self._hosts)
        ip = IPv4Addr(int(_HOST_IP_BASE) + index + 1)
        mac = MacAddr(_HOST_MAC_BASE + index + 1)
        self.graph.add_node(name, kind="host", ip=ip, mac=mac, **attrs)
        self._hosts.append(name)
        return name

    def add_link(self, a: str, b: str, **attrs) -> None:
        """Join two existing, distinct nodes."""
        try:
            self.graph.add_edge(a, b, **attrs)
        except KeyError:
            raise ValueError(f"link endpoints must exist: {a!r}-{b!r}") from None

    # -- queries -------------------------------------------------------------
    def hosts(self) -> list[str]:
        """All host node names."""
        return list(self._hosts)

    def switches(self) -> list[str]:
        """All switch node names."""
        return list(self._switches)

    def is_host(self, node: str) -> bool:
        """True if ``node`` names a host (an unknown name does not)."""
        return self.graph.nodes.get(node, {}).get("kind") == "host"

    def kind(self, node: str) -> str:
        """Node kind: ``"host"`` or ``"switch"``."""
        return self.graph.nodes[node]["kind"]

    def host_ip(self, node: str) -> IPv4Addr:
        """A host's assigned IPv4 address."""
        return self.graph.nodes[node]["ip"]

    def host_mac(self, node: str) -> MacAddr:
        """A host's assigned MAC address."""
        return self.graph.nodes[node]["mac"]

    def neighbors(self, node: str) -> list[str]:
        """Adjacent node names."""
        return list(self.graph.adj[node])

    def validate(self) -> None:
        """Sanity checks: connectivity, hosts hang off switches only."""
        if not len(self.graph):
            raise ValueError("empty topology")
        if not is_connected(self.graph):
            raise ValueError("topology is not connected")
        for h in self._hosts:
            for nb in self.graph.adj[h]:
                if self.kind(nb) != "switch":
                    raise ValueError(f"host {h} connected to non-switch {nb}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Topology {self.name}: {len(self._hosts)} hosts, "
            f"{len(self._switches)} switches, {len(self.graph.edges)} links>"
        )


def fat_tree(k: int = 4, name: Optional[str] = None) -> Topology:
    """A k-ary fat-tree: (k/2)² core, k pods of k switches, k³/4 hosts."""
    if k < 2 or k % 2:
        raise ValueError("fat-tree arity k must be a positive even number")
    half = k // 2
    topo = Topology(name or f"fat-tree-{k}")

    cores = [
        topo.add_switch(f"c{i + 1}", layer="core") for i in range(half * half)
    ]
    host_idx = 0
    for pod in range(k):
        aggs = [
            topo.add_switch(f"p{pod}a{i}", layer="agg", pod=pod) for i in range(half)
        ]
        edges = [
            topo.add_switch(f"p{pod}e{i}", layer="edge", pod=pod) for i in range(half)
        ]
        for i, agg in enumerate(aggs):
            # Each agg switch connects to `half` core switches.
            for j in range(half):
                topo.add_link(agg, cores[i * half + j])
            for edge in edges:
                topo.add_link(agg, edge)
        for edge in edges:
            for _ in range(half):
                host_idx += 1
                h = topo.add_host(f"h{host_idx}", pod=pod)
                topo.add_link(h, edge)
    topo.validate()
    return topo


def leaf_spine(
    spines: int = 2, leaves: int = 4, hosts_per_leaf: int = 4, name: Optional[str] = None
) -> Topology:
    """A two-tier leaf-spine (Clos) fabric."""
    if spines < 1 or leaves < 1 or hosts_per_leaf < 1:
        raise ValueError("spines, leaves and hosts_per_leaf must be positive")
    topo = Topology(name or f"leaf-spine-{spines}x{leaves}")
    spine_names = [topo.add_switch(f"spine{i + 1}", layer="spine") for i in range(spines)]
    host_idx = 0
    for li in range(leaves):
        leaf = topo.add_switch(f"leaf{li + 1}", layer="leaf")
        for s in spine_names:
            topo.add_link(leaf, s)
        for _ in range(hosts_per_leaf):
            host_idx += 1
            h = topo.add_host(f"h{host_idx}")
            topo.add_link(h, leaf)
    topo.validate()
    return topo


def bcube(n: int = 4, k: int = 1, name: Optional[str] = None) -> Topology:
    """BCube(n, k): server-centric fabric from the paper's threat discussion.

    n^(k+1) servers; (k+1)·n^k level switches; the server with base-n digits
    a_k…a_0 connects at level l to the switch indexed by its digits with
    digit l removed.

    In real BCube the *servers* relay traffic between levels.  An SDN
    deployment realizes that with a software switch on each server (the
    thing a "guest VM escape" compromises in the paper's threat model), so
    each host here hangs off its own soft switch ``v<i>``, which in turn
    connects to the level switches.  Routing interiors remain pure switches.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    topo = Topology(name or f"bcube-{n}-{k}")
    n_hosts = n ** (k + 1)
    soft_switches = []
    for i in range(n_hosts):
        soft = topo.add_switch(f"v{i + 1}", layer="server-soft", bcube_id=i)
        host = topo.add_host(f"h{i + 1}", bcube_id=i)
        topo.add_link(host, soft)
        soft_switches.append(soft)
    for level in range(k + 1):
        for sw_idx in range(n ** k):
            sw = topo.add_switch(f"l{level}s{sw_idx}", layer=f"level{level}")
            # Servers whose digits-without-level-l equal sw_idx's digits.
            for port in range(n):
                digits_below = sw_idx % (n ** level)
                digits_above = sw_idx // (n ** level)
                host_id = (
                    digits_above * (n ** (level + 1))
                    + port * (n ** level)
                    + digits_below
                )
                topo.add_link(soft_switches[host_id], sw)
    topo.validate()
    return topo


def linear(
    n_switches: int = 3, hosts_per_switch: int = 1, name: Optional[str] = None
) -> Topology:
    """A chain of switches, each with local hosts — the paper's Fig 2 shape
    (Alice — S1 — S2 — S3 — Bob) is ``linear(3, 1)`` using h1 and h3."""
    if n_switches < 1 or hosts_per_switch < 0:
        raise ValueError("need at least one switch")
    topo = Topology(name or f"linear-{n_switches}")
    prev = None
    host_idx = 0
    for i in range(n_switches):
        sw = topo.add_switch(f"s{i + 1}")
        if prev is not None:
            topo.add_link(prev, sw)
        for _ in range(hosts_per_switch):
            host_idx += 1
            h = topo.add_host(f"h{host_idx}")
            topo.add_link(h, sw)
        prev = sw
    topo.validate()
    return topo
