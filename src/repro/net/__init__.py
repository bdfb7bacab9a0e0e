"""Network substrate: addresses, packets, links, SDN switches, hosts,
topologies, network assembly and the fluid throughput solver.

This package replaces the paper's Mininet + Open vSwitch testbed.
"""

from .addresses import IPv4Addr, MacAddr, Subnet, ip, mac
from .flowtable import (
    CONTROLLER_PORT,
    Action,
    Drop,
    FlowEntry,
    FlowTable,
    Group,
    GroupEntry,
    Match,
    Output,
    PopMpls,
    PushMpls,
    SetField,
    ToController,
)
from .fluid import FluidAllocation, FluidFlow, FluidSolver, max_min_fair
from .host import Host
from .hybrid import (
    HANDOFF_CONTRACT,
    PACKET_PINS,
    WIRE_EFFICIENCY,
    FluidTransfer,
    HandoffInvariant,
    HybridEngine,
    PacketPin,
    format_handoff_table,
    format_pin_table,
)
from .link import Channel, Link, LinkStats
from .network import Network
from .node import CpuMeter, Node
from .packet import Packet
from .params import DEFAULT_PARAMS, NetParams
from .switch import Switch
from .topology import Topology, bcube, fat_tree, leaf_spine, linear

__all__ = [
    "CONTROLLER_PORT",
    "HANDOFF_CONTRACT",
    "PACKET_PINS",
    "WIRE_EFFICIENCY",
    "Action",
    "Channel",
    "CpuMeter",
    "DEFAULT_PARAMS",
    "Drop",
    "FlowEntry",
    "FlowTable",
    "FluidAllocation",
    "FluidFlow",
    "FluidSolver",
    "FluidTransfer",
    "Group",
    "GroupEntry",
    "HandoffInvariant",
    "Host",
    "HybridEngine",
    "IPv4Addr",
    "Link",
    "LinkStats",
    "MacAddr",
    "Match",
    "NetParams",
    "Network",
    "Node",
    "Output",
    "Packet",
    "PacketPin",
    "PopMpls",
    "PushMpls",
    "SetField",
    "Subnet",
    "Switch",
    "ToController",
    "Topology",
    "bcube",
    "fat_tree",
    "format_handoff_table",
    "format_pin_table",
    "ip",
    "leaf_spine",
    "linear",
    "mac",
    "max_min_fair",
]
