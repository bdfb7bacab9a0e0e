"""The emission ``Packet.copy`` replaced, kept as the test oracle."""

import dataclasses

from repro.net import Packet
from repro.net import packet as packet_module


def rebuild_copy(self: Packet, fresh_identity: bool = True) -> Packet:
    """``Packet.copy`` as it was: the duplicate built through ``__init__``,
    so ``__post_init__`` validates it."""
    dup = Packet(**{f.name: getattr(self, f.name) for f in dataclasses.fields(Packet)})
    if fresh_identity:
        dup.uid = packet_module.fresh_uid()
    return dup
