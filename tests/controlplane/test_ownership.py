"""The rendezvous ownership map and the flow-ID allocator's residue classes.

Everything the shard layer leans on is proven here in isolation: the map
is a pure function of ``(seed, shard, switch)`` (no ``PYTHONHASHSEED``
leak), covers every switch, and loses a shard with minimal disruption;
the allocator's residue classes are disjoint and a released id returns
to its own class.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ownership import (
    CONTROLPLANE_CONTRACT,
    OwnershipMap,
    format_controlplane_table,
)
from repro.core import deploy_mic
from repro.core.collision import FlowIdAllocator
from repro.net.topology import fat_tree

SWITCHES = sorted(fat_tree(4).switches())


def test_owner_is_deterministic_and_in_range():
    m1 = OwnershipMap(4, seed=0)
    m2 = OwnershipMap(4, seed=0)
    for sw in SWITCHES:
        assert m1.owner(sw) == m2.owner(sw)
        assert 0 <= m1.owner(sw) < 4


def test_weight_is_sha256_not_builtin_hash():
    # The exact value is pinned so a refactor to hash() (which varies with
    # PYTHONHASHSEED) cannot slip through the determinism matrix.
    import hashlib

    m = OwnershipMap(2, seed=7)
    expect = int.from_bytes(
        hashlib.sha256(b"7:1:e0s0").digest()[:8], "big"
    )
    assert m.weight(1, "e0s0") == expect


def test_partition_covers_every_switch_once():
    m = OwnershipMap(4, seed=0)
    part = m.partition(SWITCHES)
    assert sorted(sw for group in part.values() for sw in group) == SWITCHES
    # fat_tree(4)'s 20 switches spread over all four shards (no empty
    # shard at this seed — a property the bench's load spreading needs).
    assert all(part[shard] for shard in range(4))


def test_partition_is_input_order_independent():
    m = OwnershipMap(3, seed=1)
    assert m.partition(SWITCHES) == m.partition(list(reversed(SWITCHES)))


def test_seed_changes_the_map():
    a = OwnershipMap(4, seed=0)
    b = OwnershipMap(4, seed=1)
    assert any(a.owner(sw) != b.owner(sw) for sw in SWITCHES)


def test_hrw_minimal_disruption_on_shard_loss():
    m = OwnershipMap(4, seed=0)
    before = {sw: m.owner(sw) for sw in SWITCHES}
    survivors = (0, 1, 3)
    for sw in SWITCHES:
        after = m.owner(sw, alive=survivors)
        if before[sw] != 2:
            # Every assignment not owned by the dead shard is unchanged.
            assert after == before[sw], sw
        else:
            assert after in survivors, sw


def test_single_shard_map_is_constant():
    m = OwnershipMap(1, seed=0)
    assert {m.owner(sw) for sw in SWITCHES} == {0}


def test_owner_rejects_bad_alive_sets():
    m = OwnershipMap(2, seed=0)
    with pytest.raises(ValueError):
        m.owner("e0s0", alive=(0, 5))
    with pytest.raises(ValueError):
        m.owner("e0s0", alive=())
    with pytest.raises(ValueError):
        OwnershipMap(0)


@settings(max_examples=60, deadline=None)
@given(
    n_shards=st.integers(1, 5),
    seed=st.integers(0, 3),
    alive_sets=st.lists(st.sets(st.integers(0, 4), min_size=1), max_size=6),
)
def test_memoized_owner_equals_a_fresh_maps(n_shards, seed, alive_sets):
    """Asked again and again, in any order, the memo answers what a map
    that never saw a question answers."""
    memo = OwnershipMap(n_shards, seed=seed)
    for alive in alive_sets + [None] + alive_sets:
        if alive is not None:
            alive = [i for i in alive if i < n_shards] or [0]
        for sw in SWITCHES:
            assert memo.owner(sw, alive) == OwnershipMap(n_shards, seed).owner(sw, alive)


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=8))
def test_owner_of_switch_after_shard_crashes_and_rejoins(steps):
    """Through ``crash_shard`` / ``rejoin_shard`` the controller's owner of
    every switch is a fresh map's owner over the alive shards."""
    mic = deploy_mic(fat_tree(4), seed=0, shards=4).mic
    for crash, shard in steps:
        if crash and mic.alive_shards() != (shard,):
            mic.crash_shard(shard)
        elif not crash:
            mic.rejoin_shard(shard)
        fresh = OwnershipMap(4)
        for sw in SWITCHES:
            assert mic.owner_of_switch(sw).shard_id == fresh.owner(sw, mic.alive_shards())


# ---------------------------------------------------------------------------
# FlowIdAllocator residue classes
# ---------------------------------------------------------------------------
def test_residue_classes_are_disjoint():
    alloc = FlowIdAllocator(64, n_shards=4)
    seen = set()
    for shard in range(4):
        for _ in range(8):
            fid = alloc.allocate(shard)
            assert fid % 4 == shard
            assert fid not in seen
            seen.add(fid)
    assert alloc.live_count == 32


def test_partition_exhaustion_matches_plain_message():
    alloc = FlowIdAllocator(4, n_shards=4)
    assert alloc.allocate(1) == 1
    with pytest.raises(RuntimeError, match="flow-ID space exhausted"):
        alloc.allocate(1)
    assert alloc.allocate(2) == 2  # the other classes are untouched


def test_release_and_liveness():
    alloc = FlowIdAllocator(8, n_shards=2)
    fid = alloc.allocate(0)
    assert alloc.is_live(fid) and alloc.live_count == 1
    alloc.release(fid)
    assert not alloc.is_live(fid) and alloc.live_count == 0
    with pytest.raises(ValueError):
        alloc.release(fid)
    # A released id returns to its own class: shard 1's id 1 is recycled
    # by shard 1, never handed to shard 0.
    assert [alloc.allocate(1), alloc.allocate(1)] == [1, 3]
    alloc.release(1)
    assert [alloc.allocate(0), alloc.allocate(0)] == [0, 2]
    assert alloc.allocate(1) == 1


def test_contract_table_has_one_row_per_rule():
    table = format_controlplane_table()
    rows = [ln for ln in table.splitlines() if ln.startswith("| ")]
    # header + separator line are filtered by the "| --- |" prefix check
    body = [ln for ln in rows if not ln.startswith("| ---")
            and not ln.startswith("| aspect")]
    assert len(body) == len(CONTROLPLANE_CONTRACT)
    assert table.endswith("\n")
