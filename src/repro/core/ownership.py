"""Deterministic switch-ownership for the sharded Mimic Controller.

One MC computing every walk and serializing every flow-mod is the
scalability ceiling the paper itself flags (Sec VI-C: O(|F|) routing
cost through a single controller).  ``MimicController(shards=N)`` splits
that work across N controller shards, and this module answers its one
central question — *which shard owns a switch* — with rendezvous
(highest-random-weight) hashing:

* ``weight(shard, switch)`` is SHA-256 over ``"{seed}:{shard}:{switch}"``,
  so the map depends only on the seed and the two ids — never on
  ``PYTHONHASHSEED``, dict order, or process identity.  Every shard (and
  every test) can re-derive the full map locally; there is no central
  table to replicate, which is exactly the property failover leans on.
* HRW gives minimal disruption: removing a shard from the ``alive`` set
  reassigns *only* the switches that shard owned; every surviving
  assignment is unchanged.  That keeps a shard crash from churning
  ownership (and therefore repair responsibility) fleet-wide.
* With one shard the map is trivially constant: every switch is shard
  0's.

The DHT-style peer routing in p2p-project and Quantum's plugin/agent
split are the architectural exemplars: a logically central policy whose
enforcement (and here, computation) is distributed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

__all__ = [
    "OwnershipMap",
    "CONTROLPLANE_CONTRACT",
    "format_controlplane_table",
]


class OwnershipMap:
    """Seeded rendezvous-hash assignment of switch ids to shard ids."""

    def __init__(self, n_shards: int, seed: int = 0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.seed = seed
        #: (switch, sorted alive ids) -> owner: a pure function of the ids
        self._owners: dict[tuple[str, tuple[int, ...]], int] = {}

    def weight(self, shard: int, switch: str) -> int:
        """The HRW weight of ``shard`` for ``switch`` (independent of
        hash randomization — SHA-256 over the seeded id pair)."""
        key = f"{self.seed}:{shard}:{switch}".encode()
        return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")

    def owner(self, switch: str, alive: Optional[Iterable[int]] = None) -> int:
        """The owning shard among ``alive`` (default: all shards), memoized."""
        candidates = tuple(sorted(range(self.n_shards) if alive is None else alive))
        key = (switch, candidates)
        if key in self._owners:
            return self._owners[key]
        best = -1
        best_weight = -1
        for shard in candidates:
            if not 0 <= shard < self.n_shards:
                raise ValueError(f"shard {shard} out of range")
            w = self.weight(shard, switch)
            if w > best_weight:
                best, best_weight = shard, w
        if best < 0:
            raise ValueError("no live shard to own " + repr(switch))
        self._owners[key] = best
        return best

    def partition(
        self, switches: Sequence[str], alive: Optional[Iterable[int]] = None
    ) -> dict[int, list[str]]:
        """Switches grouped by owning shard (sorted, covering input order
        independent)."""
        alive_list = sorted(alive) if alive is not None else list(range(self.n_shards))
        out: dict[int, list[str]] = {shard: [] for shard in alive_list}
        for sw in sorted(switches):
            out[self.owner(sw, alive_list)].append(sw)
        return out


# ----------------------------------------------------------------------
# Doc-diffed contract (docs/controlplane.md embeds the rendered table)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ControlplaneRule:
    """One row of the ownership-map / failover contract."""

    aspect: str
    rule: str
    on_shard_crash: str


CONTROLPLANE_CONTRACT: tuple[ControlplaneRule, ...] = (
    ControlplaneRule(
        "switch ownership",
        "`owner(switch) = argmax_shard sha256(seed:shard:switch)` over the "
        "alive set — re-derivable anywhere from `(seed, n_shards, alive)`, "
        "independent of `PYTHONHASHSEED` and insertion order",
        "HRW re-ranks only the dead shard's switches; every surviving "
        "assignment is unchanged (minimal disruption)",
    ),
    ControlplaneRule(
        "channel ownership",
        "a channel lives on the shard owning its initiator's edge switch; "
        "a request is served by the punting switch's owner, and "
        "`shutdown`/`notify` act on whichever shard holds the channel",
        "the surviving owner of the edge switch adopts the channel, its "
        "compiled intents, and its parked flows — channels are never killed",
    ),
    ControlplaneRule(
        "flow-ID namespace",
        "one `FlowIdAllocator` keeps *N* residue classes; shard *i* "
        "allocates ids ≡ *i* (mod *N*), so MAGA uniqueness is global with "
        "zero coordination",
        "a release returns the id to its class by residue, so a rejoined "
        "shard's class is still exact",
    ),
    ControlplaneRule(
        "labels / MN hashes",
        "the one `Planner` (`LabelSpace`, per-MN `ReversibleHash` spaces, "
        "the collision registry, the flow-ID allocator and the one "
        "anonymity strategy with its counters) and the hidden-service map "
        "belong to the controller, built once on the `mic-controller` "
        "stream; shard *i* > 0 plans on `mic-controller/shard{i}`",
        "nothing to rebuild: the namespace is shard-independent state",
    ),
    ControlplaneRule(
        "install fan-out",
        "every flow-mod routes to the shard owning its target switch, so a "
        "multi-segment walk's installs pipeline across shards; under "
        "`cpu_model=\"serialized\"` each shard's mods queue on its own CPU",
        "in-flight installs of the dead shard settle or fail through the "
        "acked-install machinery; the adopter's re-repair re-drives them",
    ),
    ControlplaneRule(
        "repair / park / resync",
        "fault events fan out to alive shards; each repairs, parks, and "
        "resyncs only the channels it owns",
        "flows mid-repair or parked on the dead shard are re-scheduled on "
        "the adopter from the stored compiled intents; one idle-expiry "
        "loop walks whatever the alive shards hold",
    ),
    ControlplaneRule(
        "rejoin",
        "a rejoined shard becomes eligible for new ownership immediately",
        "adopted channels do not fail back — they stay with the adopter "
        "until teardown, avoiding a second migration window",
    ),
    ControlplaneRule(
        "single-shard mode",
        "`shards=1` (the default) is the unsharded controller: one shard "
        "book, the same object `deploy_mic()` builds; `shards=0` is a "
        "`ValueError`",
        "no failover possible; `ShardCrash` on one shard is a schedule "
        "validation error; the last alive shard cannot be crashed",
    ),
)


def format_controlplane_table(
    rows: tuple[ControlplaneRule, ...] = CONTROLPLANE_CONTRACT,
) -> str:
    """The markdown ownership/failover contract table docs embed."""
    lines = [
        "| aspect | rule | on shard crash |",
        "| --- | --- | --- |",
    ]
    for row in rows:
        lines.append(f"| {row.aspect} | {row.rule} | {row.on_shard_crash} |")
    return "\n".join(lines) + "\n"
