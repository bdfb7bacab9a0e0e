"""Control-plane scale-out: who owns what in a sharded Mimic Controller.

The paper flags the single MC as MIC's scalability ceiling (Sec VI-C).
``MimicController(shards=N)`` (:mod:`repro.core.controller`) splits switch
ownership across N controller shards; this package holds the seeded
rendezvous-hash ownership map it routes by and the doc-diffed contract.
See ``docs/controlplane.md``.
"""

from .ownership import (
    CONTROLPLANE_CONTRACT,
    OwnershipMap,
    format_controlplane_table,
)

__all__ = [
    "OwnershipMap",
    "CONTROLPLANE_CONTRACT",
    "format_controlplane_table",
]
