"""Unit and property tests for collision avoidance machinery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collision import (
    CollisionRegistry,
    FlowIdAllocator,
    MAddress,
    MnAddressSpace,
)
from repro.core.collision import CollisionError
from repro.core.labels import LabelSpace
from repro.net import ip


class TestFlowIdAllocator:
    def test_ids_unique_while_live(self):
        alloc = FlowIdAllocator(100)
        ids = [alloc.allocate() for _ in range(100)]
        assert len(set(ids)) == 100

    def test_exhaustion(self):
        alloc = FlowIdAllocator(2)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(RuntimeError):
            alloc.allocate()

    def test_release_recycles(self):
        alloc = FlowIdAllocator(1)
        fid = alloc.allocate()
        alloc.release(fid)
        assert alloc.allocate() == fid

    def test_release_unknown_rejected(self):
        with pytest.raises(ValueError):
            FlowIdAllocator(4).release(0)

    def test_live_count(self):
        alloc = FlowIdAllocator(10)
        a = alloc.allocate()
        alloc.allocate()
        assert alloc.live_count == 2
        alloc.release(a)
        assert alloc.live_count == 1
        assert not alloc.is_live(a)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            FlowIdAllocator(0)


class TestMnAddressSpace:
    def setup_method(self):
        self.rng = random.Random(0)
        self.labels = LabelSpace(self.rng)
        self.labels.register_mn("s1")
        self.labels.register_mn("s2")
        self.s1 = MnAddressSpace("s1", self.rng, self.labels)
        self.s2 = MnAddressSpace("s2", self.rng, self.labels)

    def test_label_classifies_to_flow_id(self):
        label = self.s1.draw_label(7, ip("10.0.0.1"), ip("10.0.0.2"), self.rng)
        assert self.s1.flow_id_of(ip("10.0.0.1"), ip("10.0.0.2"), label) == 7

    def test_label_owned_by_mn(self):
        label = self.s1.draw_label(7, ip("10.0.0.1"), ip("10.0.0.2"), self.rng)
        assert self.labels.owner_of(label) == "s1"

    def test_same_mn_different_flows_never_collide(self):
        """Two different live flow IDs cannot produce the same ⟨src, dst,
        label⟩ tuple on the same MN — F is a function."""
        seen = {}
        for fid in range(20):
            for _ in range(20):
                src = ip(random.Random(fid).getrandbits(32))
                dst = ip(self.rng.getrandbits(32))
                label = self.s1.draw_label(fid, src, dst, self.rng)
                key = (src, dst, label)
                assert seen.get(key, fid) == fid
                seen[key] = fid

    def test_different_mns_labels_disjoint(self):
        labels_1 = {
            self.s1.draw_label(1, ip(1), ip(2), self.rng) for _ in range(100)
        }
        labels_2 = {
            self.s2.draw_label(1, ip(1), ip(2), self.rng) for _ in range(100)
        }
        assert labels_1.isdisjoint(labels_2)

    def test_independent_hash_functions(self):
        assert self.s1.F != self.s2.F

    @settings(max_examples=60, deadline=None)
    @given(
        fid1=st.integers(0, 1023),
        fid2=st.integers(0, 1023),
        seed=st.integers(0, 50),
    )
    def test_cross_flow_disjointness_property(self, fid1, fid2, seed):
        if fid1 == fid2:
            return
        rng = random.Random(seed)
        labels = LabelSpace(rng)
        labels.register_mn("sw")
        space = MnAddressSpace("sw", rng, labels)
        src1, dst1 = ip(rng.getrandbits(32)), ip(rng.getrandbits(32))
        src2, dst2 = ip(rng.getrandbits(32)), ip(rng.getrandbits(32))
        t1 = (src1, dst1, space.draw_label(fid1, src1, dst1, rng))
        t2 = (src2, dst2, space.draw_label(fid2, src2, dst2, rng))
        assert t1 != t2


class TestCollisionRegistry:
    def test_register_and_owner(self):
        reg = CollisionRegistry()
        reg.register("s1", ("a", "b", 1, 2, 3), "ch1")
        assert reg.owner("s1", ("a", "b", 1, 2, 3)) == "ch1"
        assert reg.owner("s1", ("x",)) is None

    def test_duplicate_same_owner_allowed(self):
        reg = CollisionRegistry()
        reg.register("s1", ("k",), "ch1")
        reg.register("s1", ("k",), "ch1")  # revisits of a walk

    def test_duplicate_other_owner_rejected(self):
        reg = CollisionRegistry()
        reg.register("s1", ("k",), "ch1")
        with pytest.raises(CollisionError):
            reg.register("s1", ("k",), "ch2")

    def test_same_key_different_switch_ok(self):
        reg = CollisionRegistry()
        reg.register("s1", ("k",), "ch1")
        reg.register("s2", ("k",), "ch2")

    def test_release_owner(self):
        reg = CollisionRegistry()
        reg.register("s1", ("k1",), "ch1")
        reg.register("s2", ("k2",), "ch1")
        reg.register("s1", ("k3",), "ch2")
        assert reg.release_owner("ch1") == 2
        assert reg.total_keys() == 1
        reg.register("s1", ("k1",), "ch9")  # freed key is reusable

    def test_keys_on(self):
        reg = CollisionRegistry()
        reg.register("s1", ("k1",), "a")
        reg.register("s1", ("k2",), "b")
        assert sorted(reg.keys_on("s1")) == [("k1",), ("k2",)]
        assert reg.keys_on("ghost") == []


class ScanRegistry:
    """The registry as first written — the oracle: one key table per
    switch, ``release_owner`` and ``owners`` scan every table."""

    def __init__(self):
        self._keys = {}

    def register(self, switch, key, owner):
        table = self._keys.setdefault(switch, {})
        existing = table.get(key)
        if existing is not None and existing != owner:
            raise CollisionError(
                f"match key {key} on {switch} already owned by {existing}"
            )
        table[key] = owner

    def release_owner(self, owner):
        removed = 0
        for table in self._keys.values():
            stale = [k for k, o in table.items() if o == owner]
            for k in stale:
                del table[k]
                removed += 1
        return removed

    def owner(self, switch, key):
        return self._keys.get(switch, {}).get(key)

    def keys_on(self, switch):
        return list(self._keys.get(switch, {}))

    def total_keys(self):
        return sum(len(t) for t in self._keys.values())

    def owners(self):
        return {o for table in self._keys.values() for o in table.values()}


_SWITCHES = ["s1", "s2", "s3"]
_OWNERS = ["ch1/c1", "ch1/c2", "ch2/c3"]
_KEYS = [("k", i) for i in range(4)]
_registry_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.sampled_from(_SWITCHES),
                  st.sampled_from(_KEYS), st.sampled_from(_OWNERS)),
        st.tuples(st.just("release"), st.sampled_from(_OWNERS + ["nobody"])),
    ),
    max_size=60,
)


class TestOwnerIndexAgainstTheScan:
    """The owner → claims index is bookkeeping only: every random register /
    re-register / foreign-duplicate / release sequence reads exactly like
    the table scan it replaced, after every step."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_registry_ops)
    def test_same_answers_after_every_step(self, ops):
        reg, oracle = CollisionRegistry(), ScanRegistry()
        for op in ops:
            outcomes = []
            for r in (reg, oracle):
                try:
                    outcomes.append(
                        r.register(*op[1:]) if op[0] == "register"
                        else r.release_owner(op[1])
                    )
                except CollisionError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], op
            assert reg.owners() == oracle.owners()
            assert reg.total_keys() == oracle.total_keys()
            for sw in _SWITCHES:
                assert reg.keys_on(sw) == oracle.keys_on(sw)  # order too
                for key in _KEYS:
                    assert reg.owner(sw, key) == oracle.owner(sw, key)

    def test_release_leaves_no_empty_tables_behind(self):
        reg = CollisionRegistry()
        for sw in _SWITCHES:
            reg.register(sw, ("k", 0), "ch1/c1")
        reg.register("s1", ("k", 1), "ch2/c3")
        assert reg.release_owner("ch1/c1") == 3
        assert reg._keys == {"s1": {("k", 1): "ch2/c3"}}
        assert reg.release_owner("ch2/c3") == 1
        assert reg._keys == {} and reg._held == {}


class TestMAddress:
    def test_match_triple(self):
        a = MAddress(ip(1), ip(2), 10, 20, 99)
        assert a.match_triple() == (ip(1), ip(2), 99)

    def test_frozen(self):
        a = MAddress(ip(1), ip(2), 10, 20, None)
        with pytest.raises(Exception):
            a.sport = 11
