"""Bounded state under churn: a torn-down channel leaves nothing behind.

The census walks every ``repro`` object reachable from a deployment and
counts, by owner class, its instances and the size of each container it
holds (``vars()`` and ``__slots__``).  After R and after 2R connect /
shutdown rounds, both settled, the two censuses must be equal: anything a
channel leaves in a book -- a signature map in the strategy, a stream in
the simulator's table, a plan kept in a dict -- grows with the rounds.
"""

import types
from collections import Counter, deque

from repro.bench import run_shard_churn

CONTAINERS = (dict, list, set, frozenset, tuple, deque, bytearray)

#: bounded caches, exempt by name: each MN's hash works out its solve
#: terms on first use (at most one per switch), and a flow table's lookup
#: cache is dropped whenever the table changes
CACHES = {("ReversibleHash", "_terms"), ("FlowTable", "_lookup_cache")}


def census(root) -> Counter:
    """``{(class, attribute): summed container size}`` plus
    ``{(class, ""): instances}`` over the ``repro`` objects reachable from
    ``root``."""
    sizes: Counter = Counter()
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif type(obj).__module__.startswith("repro"):
            cls = type(obj)
            sizes[cls.__qualname__, ""] += 1
            attrs = dict(getattr(obj, "__dict__", {}))
            for klass in cls.__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(obj, slot):
                        attrs[slot] = getattr(obj, slot)
            for name, value in attrs.items():
                if isinstance(value, CONTAINERS) and (cls.__qualname__, name) not in CACHES:
                    sizes[cls.__qualname__, name] += len(value)
                stack.append(value)
    return sizes


def _churned(rounds):
    result = run_shard_churn(k=4, clients=8, shards=2, rounds=rounds, seed=0)
    dep = result.deployment
    dep.run_for(60.0)
    assert result.setups == result.teardowns == 8 * rounds
    assert dep.mic.live_channels == 0
    return census(dep)


def test_twice_the_churn_leaves_the_same_state():
    once, twice = _churned(2), _churned(4)
    grown = {key: (once[key], twice[key]) for key in once.keys() | twice.keys()
             if once[key] != twice[key]}
    assert grown == {}

