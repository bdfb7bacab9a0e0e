"""networkx, the graph library ``repro`` shipped on until it grew its own.

``repro.net.graph.Graph`` keeps the names of the ``networkx.Graph``
operations it replaced (``nodes`` / ``adj`` / ``edges`` / ``add_edge`` /
``remove_edge`` / ``has_edge`` / ``neighbors`` / ``copy``), so the fabric
code runs unchanged over either.  The oracle uses that twice:

* :func:`to_networkx` hands a finished topology to networkx *algorithms*
  (shortest paths, connectivity) in tests that want an independent answer;
* :func:`built_on_networkx` runs a topology builder with ``networkx.Graph``
  as ``Topology.graph`` — every ``add_node`` / ``add_edge`` replayed in the
  builder's own order — so ``Network.port_map``, ``TopologyView.dist`` and
  the detour search can be compared with the ones the old dependency gave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from unittest import mock

import networkx as nx

from repro.net import topology
from repro.net.topology import Topology


def to_networkx(topo: Topology) -> nx.Graph:
    """The topology's nodes, links and attributes as a ``networkx.Graph``."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.graph.nodes(data=True))
    graph.add_edges_from(topo.graph.edges(data=True))
    return graph


@dataclass(repr=False)
class NetworkxTopology(Topology):
    """A :class:`Topology` whose ``graph`` is a ``networkx.Graph``."""

    graph: nx.Graph = field(default_factory=nx.Graph, init=False)


def built_on_networkx(builder, *args, **kwargs) -> Topology:
    """``builder(*args, **kwargs)``, its graph kept by networkx."""
    with mock.patch.object(topology, "Topology", NetworkxTopology):
        return builder(*args, **kwargs)
