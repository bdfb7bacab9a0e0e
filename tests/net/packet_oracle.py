"""The emission ``Packet.copy`` replaced, kept as the test oracle."""

import dataclasses
from typing import Optional

from repro.net import Packet


def rebuild_copy(self: Packet, uid: Optional[int] = None) -> Packet:
    """``Packet.copy`` as it was: the duplicate built through ``__init__``,
    so ``__post_init__`` validates it."""
    dup = Packet(**{f.name: getattr(self, f.name) for f in dataclasses.fields(Packet)})
    if uid is not None:
        dup.uid = uid
    return dup
