"""MIC core: the paper's contribution.

* :mod:`.maga` — reversible XOR/shift hash family (MAGA, Sec IV-B3)
* :mod:`.labels` — MPLS label-space partition (CF/MF, per-MN sets)
* :mod:`.restrictions` — per-link plausible m-address restrictions
* :mod:`.collision` — flow IDs, per-MN address spaces, key registry
* :mod:`.channel` — channel/m-flow state and grants
* :mod:`.planner` — m-flow planning (walk, MNs, m-addresses), no simulator
* :mod:`.controller` — the Mimic Controller SDN app
* :mod:`.ownership` — rendezvous switch ownership for ``shards=N``
* :mod:`.client` — user-end module (socket-like API) and server library
* :mod:`.multiflow` — multiple-m-flows slicing/reassembly
* :mod:`.hidden` — hidden service map (receiver anonymity)
"""

from .channel import ChannelGrant, FlowGrant, MFlowPlan, MimicChannel
from .client import (
    MicDatagramServer,
    MicDatagramSocket,
    MicEndpoint,
    MicError,
    MicServer,
    MicStream,
)
from .commonflows import CommonFlowTagger
from .cover import COVER_PORT, CoverTraffic
from .collision import (
    CollisionRegistry,
    FlowIdAllocator,
    MAddress,
    MnAddressSpace,
)
from .controller import (
    MC_IP,
    MC_PORT,
    MIC_PRIORITY,
    McReply,
    McRequest,
    MimicController,
)
from .deployment import MicDeployment, deploy_mic
from .hidden import HiddenService, HiddenServiceMap
from .labels import LabelSpace, LabelSpaceExhausted
from .maga import HashParams, ReversibleHash
from .multiflow import Reassembler, Slicer
from .restrictions import AddressRestrictions

__all__ = [
    "AddressRestrictions",
    "ChannelGrant",
    "CollisionRegistry",
    "COVER_PORT",
    "CommonFlowTagger",
    "CoverTraffic",
    "FlowGrant",
    "FlowIdAllocator",
    "HashParams",
    "HiddenService",
    "HiddenServiceMap",
    "LabelSpace",
    "LabelSpaceExhausted",
    "MAddress",
    "MC_IP",
    "MC_PORT",
    "MFlowPlan",
    "MIC_PRIORITY",
    "McReply",
    "McRequest",
    "MicDatagramServer",
    "MicDatagramSocket",
    "MicDeployment",
    "MicEndpoint",
    "MicError",
    "deploy_mic",
    "MicServer",
    "MicStream",
    "MimicChannel",
    "MimicController",
    "MnAddressSpace",
    "Reassembler",
    "ReversibleHash",
    "Slicer",
]
