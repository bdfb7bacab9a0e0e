"""Collision avoidance: flow-ID allocation, per-MN address spaces, and the
match-key uniqueness registry.

The guarantee (Sec IV-B3): every flow has a unique match entry on any
switch.  Three layers cooperate:

* :class:`FlowIdAllocator` — every m-flow gets a unique live ID (the paper's
  monotonically-increasing-with-recycling scheme) drawn from the value space
  of the four-variable hash ``F``.
* :class:`MnAddressSpace` — each MN's independently-parameterized ``F``;
  a full m-address tuple ⟨m_src, m_dst, mn_part, flow_part⟩ is placed in its
  flow's class by solving ``flow_part = F⁻¹(flow_id, …)``.  Same MN, two
  different live flow IDs → tuples necessarily differ.  Different MNs →
  labels differ because MN label sets are disjoint (:mod:`.labels`).
* :class:`CollisionRegistry` — defense-in-depth bookkeeping: the MC records
  every match key it installs and refuses duplicates, so a logic error
  surfaces as a loud failure instead of silent misrouting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.addresses import IPv4Addr
from .labels import LabelSpace
from .maga import ReversibleHash

__all__ = ["FlowIdAllocator", "MnAddressSpace", "CollisionRegistry", "MAddress"]


class FlowIdAllocator:
    """Unique live IDs with recycling, bounded by the hash value space.

    A sharded controller splits the space into ``n_shards`` residue
    classes: shard *i* allocates ids ≡ *i* (mod ``n_shards``), fresh ids
    in order and recycled ones LIFO, and a released id returns to its own
    class.  Disjoint classes keep every live id unique without any
    cross-shard coordination (MAGA's uniqueness argument, Sec IV-B3).
    """

    def __init__(self, n_values: int, n_shards: int = 1):
        if n_values < 1:
            raise ValueError("need a positive id space")
        self.n_values = n_values
        self.n_shards = n_shards
        self._next = list(range(n_shards))
        self._recycled: list[list[int]] = [[] for _ in range(n_shards)]
        self._live: set[int] = set()

    def allocate(self, shard: int = 0) -> int:
        """A unique ID among the currently live ones, from ``shard``'s class."""
        recycled = self._recycled[shard]
        if recycled:
            fid = recycled.pop()
        elif self._next[shard] < self.n_values:
            fid = self._next[shard]
            self._next[shard] += self.n_shards
        else:
            raise RuntimeError(
                f"flow-ID space exhausted ({self.n_values} live m-flows)"
            )
        self._live.add(fid)
        return fid

    def release(self, fid: int) -> None:
        """Recycle a live ID into its residue class for reuse."""
        if fid not in self._live:
            raise ValueError(f"flow id {fid} is not live")
        self._live.remove(fid)
        self._recycled[fid % self.n_shards].append(fid)

    @property
    def live_count(self) -> int:
        """Number of currently live IDs."""
        return len(self._live)

    def is_live(self, fid: int) -> bool:
        """True if the ID is currently live."""
        return fid in self._live


@dataclass(frozen=True)
class MAddress:
    """One m-address: the rewritten header fields for a path segment."""

    src_ip: IPv4Addr
    dst_ip: IPv4Addr
    sport: int
    dport: int
    mpls: Optional[int]  # None only on the unlabeled first/last segments

    def match_triple(self) -> tuple:
        """The paper's ⟨src, dst, mpls⟩ flow identifier."""
        return (self.src_ip, self.dst_ip, self.mpls)


class MnAddressSpace:
    """A Mimic Node's independent four-variable hash ``F`` and its inverse."""

    def __init__(
        self,
        mn_name: str,
        rng,
        labels: LabelSpace,
        flow_shift: int = 6,
        shared_hash: "ReversibleHash | None" = None,
    ):
        self.mn_name = mn_name
        self.labels = labels
        # Per-MN independent parameters by default (the paper's defence
        # against hash-function recovery); ``shared_hash`` exists for the
        # single-global-hash ablation.
        self.F = shared_hash if shared_hash is not None else ReversibleHash.random(
            rng,
            widths=(32, 32, labels.mn_bits, labels.flow_bits),
            shift=flow_shift,
        )

    @property
    def flow_id_values(self) -> int:
        """Size of the flow-ID value space."""
        return self.F.n_values

    def draw_label(
        self, flow_id: int, src_ip: IPv4Addr, dst_ip: IPv4Addr, rng
    ) -> int:
        """A full MPLS label placing ⟨src, dst, label⟩ in flow ``flow_id``'s
        class *and* in this MN's label set: random owned mn_part, solved
        flow_part (the paper's 'first randomly select a qualifying m_src_ip,
        m_dst_ip, mpls1, then calculate mpls2')."""
        mn_part = self.labels.mn_part_for(self.mn_name, rng)
        flow_part = self.F.solve(
            flow_id, int(src_ip), int(dst_ip), mn_part,
            low_bits=rng.getrandbits(self.F.shift),
        )
        return self.labels.join(mn_part, flow_part)

    def flow_id_of(self, src_ip: IPv4Addr, dst_ip: IPv4Addr, label: int) -> int:
        """Classify a tuple back to its flow ID (MC-side bookkeeping)."""
        mn_part, flow_part = self.labels.split(label)
        return self.F.value(int(src_ip), int(dst_ip), mn_part, flow_part)


class CollisionRegistry:
    """Records installed match keys per switch; rejects duplicates.

    A match key is ``(src_ip, dst_ip, mpls, sport, dport)`` — the paper's
    three-tuple extended with the L4 ports MIC also rewrites.  Keys are
    registered under an owner (channel/flow id) and released at teardown.
    """

    def __init__(self) -> None:
        self._keys: dict[str, dict[tuple, str]] = {}
        #: owner -> the (switch, key) claims it holds, in claim order, so a
        #: release costs what the owner holds, not a scan of every table
        self._held: dict[str, dict[tuple[str, tuple], None]] = {}

    def register(self, switch: str, key: tuple, owner: str) -> None:
        """Claim a match key on a switch; rejects foreign duplicates."""
        table = self._keys.setdefault(switch, {})
        existing = table.get(key)
        if existing is not None and existing != owner:
            raise CollisionError(
                f"match key {key} on {switch} already owned by {existing}"
            )
        table[key] = owner
        self._held.setdefault(owner, {})[switch, key] = None

    def release_owner(self, owner: str) -> int:
        """Drop every key an owner holds; returns the count."""
        held = self._held.pop(owner, {})
        for switch, key in held:
            table = self._keys[switch]
            del table[key]
            if not table:
                del self._keys[switch]
        return len(held)

    def owner(self, switch: str, key: tuple) -> Optional[str]:
        """The owner of a key on a switch, or None."""
        return self._keys.get(switch, {}).get(key)

    def keys_on(self, switch: str) -> list[tuple]:
        """All registered keys on one switch."""
        return list(self._keys.get(switch, {}))

    def total_keys(self) -> int:
        """Total registered keys across all switches."""
        return sum(len(t) for t in self._keys.values())

    def owners(self) -> set[str]:
        """Every owner currently holding at least one key (leak audits)."""
        return set(self._held)


class CollisionError(RuntimeError):
    """Two flows attempted to install the same match key on one switch."""
