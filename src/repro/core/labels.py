"""MPLS label space partitioning (Sec IV-B3).

MIC tags every flow with an MPLS label and divides the label space so that

* **common flows** and **m-flows** carry labels from disjoint categories —
  only the MC knows which is which,
* each Mimic Node owns a disjoint label set, so m-addresses written by
  different MNs can never collide even though each MN draws addresses from
  its own independent hash function.

Layout of a label (default 32 bits, the width the paper reasons over; the
real-world 20-bit label merely shrinks the spaces):

    [ mn_part : mn_bits ][ flow_part : flow_bits ]

``mn_part`` carries the MN-ownership constraint: the paper's ``g(x)`` is
realized as the split hash ``h(x1, x2)`` over the two halves of ``mn_part``
(solvable in the low half), so a random owned ``mn_part`` is drawn as
(random x1, solve x2).  Common flows own the reserved hash value ``C_ID``.
``flow_part`` is the paper's MPLS2 — the free variable the four-variable
``F`` solves to place a full m-address tuple in its m-flow's class.
"""

from __future__ import annotations

from typing import Optional

from .maga import ReversibleHash

__all__ = ["LabelSpace", "LabelSpaceExhausted"]


class LabelSpaceExhausted(RuntimeError):
    """No unassigned MN identifier values remain."""


class LabelSpace:
    """Secret partition of the MPLS label space (known only to the MC)."""

    COMMON = "common"

    def __init__(
        self,
        rng,
        mn_bits: int = 16,
        flow_bits: int = 16,
        mn_shift: int = 2,
    ):
        if mn_bits % 2:
            raise ValueError("mn_bits must be even (split into two halves)")
        self.mn_bits = mn_bits
        self.flow_bits = flow_bits
        self.half = mn_bits // 2
        self.h = ReversibleHash.random(rng, widths=(self.half, self.half), shift=mn_shift)
        self._owner_by_sid: dict[int, str] = {}
        self._sid_by_owner: dict[str, int] = {}
        self._free_sids = list(range(self.h.n_values))
        rng.shuffle(self._free_sids)
        #: reserved S_ID-space value tagging common flows (paper's C_ID)
        self.common_sid = self._allocate(LabelSpace.COMMON)

    # -- identifier management -------------------------------------------
    def _allocate(self, owner: str) -> int:
        if owner in self._sid_by_owner:
            raise ValueError(f"{owner!r} already has an S_ID")
        if not self._free_sids:
            raise LabelSpaceExhausted(
                f"all {self.h.n_values} S_ID values assigned; "
                "increase mn_bits or decrease mn_shift"
            )
        sid = self._free_sids.pop()
        self._owner_by_sid[sid] = owner
        self._sid_by_owner[owner] = sid
        return sid

    def register_mn(self, mn_name: str) -> int:
        """Assign a fresh S_ID to a Mimic Node; returns the S_ID."""
        if mn_name == LabelSpace.COMMON:
            raise ValueError("reserved owner name")
        return self._allocate(mn_name)

    @property
    def capacity(self) -> int:
        """Number of assignable S_ID values."""
        return self.h.n_values

    @property
    def registered(self) -> int:
        """Number of owners assigned so far."""
        return len(self._sid_by_owner)

    # -- label structure ------------------------------------------------
    def split(self, label: int) -> tuple[int, int]:
        """(mn_part, flow_part) halves of a full label."""
        return label >> self.flow_bits, label & ((1 << self.flow_bits) - 1)

    def join(self, mn_part: int, flow_part: int) -> int:
        """Compose a full label from its two parts."""
        if not 0 <= mn_part < (1 << self.mn_bits):
            raise ValueError("mn_part out of range")
        if not 0 <= flow_part < (1 << self.flow_bits):
            raise ValueError("flow_part out of range")
        return (mn_part << self.flow_bits) | flow_part

    # -- drawing ------------------------------------------------------------
    def mn_part_for(self, owner: str, rng) -> int:
        """A random mn_part owned by ``owner``: random x1, solve x2.

        The solved half's discarded low bits are drawn randomly too —
        deterministic low bits would give every label of one owner a
        constant-bit fingerprint (see :meth:`ReversibleHash.solve`)."""
        sid = self._sid_by_owner[owner]
        x1 = rng.getrandbits(self.half)
        x2 = self.h.solve(sid, x1, low_bits=rng.getrandbits(self.h.shift))
        return (x1 << self.half) | x2

    def common_label(self, rng) -> int:
        """A full label from the common-flow category, flow_part random."""
        mn_part = self.mn_part_for(LabelSpace.COMMON, rng)
        return self.join(mn_part, rng.getrandbits(self.flow_bits))

    # -- classification (MC-side secret knowledge) -------------------------
    def owner_of(self, label: int) -> Optional[str]:
        """Which MN (or "common") owns this label; None if unassigned."""
        mn_part, _ = self.split(label)
        x1, x2 = mn_part >> self.half, mn_part & ((1 << self.half) - 1)
        return self._owner_by_sid.get(self.h.value(x1, x2))

    def is_common(self, label: int) -> bool:
        """True if the label belongs to the common-flow category."""
        return self.owner_of(label) == LabelSpace.COMMON
