"""The topology graph: an insertion-ordered, undirected adjacency.

Two dicts — node → attributes, node → {neighbour → link attributes} — and
only the operations the fabric, the routing view and the Mimic Controller
call: a name is added once, a link joins two existing, distinct nodes and
is removed only if it is there.  Iteration order is behaviour
(docs/architecture.md, "The topology graph"); ``tests/net/test_graph.py``
holds every order here, element for element, against the graph library the
tests keep as their oracle.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["Graph", "NoPathError", "is_connected", "simple_paths"]


class NoPathError(Exception):
    """No routing path joins two nodes of the (possibly degraded) fabric."""


class _Nodes(dict):
    """node → attributes; ``nodes(data=True)`` iterates the pairs."""

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class _Edges:
    """Every link once, as ``(u, v)`` with ``u`` the endpoint added first;
    ``edges(data=True)`` appends the link's attribute dict."""

    def __init__(self, adj: dict[str, dict[str, dict]]):
        self._adj = adj

    def __call__(self, data: bool = False) -> Iterator[tuple]:
        done: set[str] = set()
        for u, nbrs in self._adj.items():
            for v, attrs in nbrs.items():
                if v not in done:
                    yield (u, v, attrs) if data else (u, v)
            done.add(u)

    __iter__ = __call__

    def __len__(self) -> int:
        return sum(map(len, self._adj.values())) // 2


class Graph:
    """Undirected simple graph.  ``nodes`` (node → attributes) and ``adj``
    (node → {neighbour → link attributes}, one dict shared by both
    directions) are plain insertion-ordered dicts that loops may read
    directly; writes go through the methods."""

    def __init__(self) -> None:
        self.nodes = _Nodes()
        self.adj: dict[str, dict[str, dict]] = {}

    def add_node(self, node: str, /, **attrs: Any) -> None:
        """Add a node under a name not yet in use."""
        if node in self.nodes:
            raise ValueError(f"node name already in use: {node!r}")
        self.nodes[node] = attrs
        self.adj[node] = {}

    def add_edge(self, u: str, v: str, /, **attrs: Any) -> None:
        """Join two existing, distinct nodes.  A new link goes last in both
        neighbour orders; an existing one stays put and merges ``attrs``."""
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        nbrs_u, nbrs_v = self.adj[u], self.adj[v]
        if v not in nbrs_u:
            nbrs_u[v] = nbrs_v[u] = {}
        nbrs_u[v].update(attrs)

    def remove_edge(self, u: str, v: str) -> None:
        """Remove a link (``KeyError`` if there is none)."""
        del self.adj[u][v]
        del self.adj[v][u]

    def has_edge(self, u: str, v: str) -> bool:
        """True iff ``u`` and ``v`` are adjacent (unknown names are not)."""
        return v in self.adj.get(u, ())

    def neighbors(self, node: str):
        """Adjacent node names, in the order their links were added."""
        return self.adj[node].keys()

    def degree(self, node: str) -> int:
        """Number of links at ``node``."""
        return len(self.adj[node])

    @property
    def edges(self) -> _Edges:
        """The links, iterable and callable (see :class:`_Edges`)."""
        return _Edges(self.adj)

    def copy(self) -> "Graph":
        """An independent graph: the nodes, then the links in ``edges``
        order (attribute dicts copied, their values shared)."""
        other = Graph()
        for node, attrs in self.nodes.items():
            other.add_node(node, **attrs)
        for u, v, attrs in self.edges(data=True):
            other.add_edge(u, v, **attrs)
        return other

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


def is_connected(graph: Graph) -> bool:
    """True iff every node is reachable from the first one."""
    adj = graph.adj
    todo = list(adj)[:1]
    seen = set(todo)
    while todo:
        for v in adj[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == len(adj)


def simple_paths(graph: Graph, src: str, dst: str, cutoff: int) -> Iterator[list[str]]:
    """Loop-free ``src`` → ``dst`` paths of at most ``cutoff`` links.

    Depth-first in neighbour order: a path is yielded the moment it reaches
    ``dst`` and never extended through it.  The enumeration order feeds an
    ``rng.choice`` in the routing view, so it is part of the contract.
    """
    adj = graph.adj
    path: dict[str, None] = {}  # insertion-ordered, O(1) membership

    def extend(node: str) -> Iterator[list[str]]:
        if node == dst:
            yield [*path, node]
        elif len(path) < cutoff:
            path[node] = None
            for nxt in adj[node]:
                if nxt not in path:
                    yield from extend(nxt)
            del path[node]

    return extend(src)
