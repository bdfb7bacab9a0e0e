"""Unit tests for the functional crypto primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import Key, KeyExchange, Sealed, WrongKeyError, seal, unseal
from repro.sim import Simulator


def fresh_keys(n):
    """``n`` keys minted the way a deployment mints them."""
    key_ids = Simulator().ids("crypto.key")
    return [Key(next(key_ids)) for _ in range(n)]


def test_seal_unseal_roundtrip():
    (k,) = fresh_keys(1)
    assert unseal(k, seal(k, "secret")) == "secret"


def test_wrong_key_rejected():
    k1, k2 = fresh_keys(2)
    with pytest.raises(WrongKeyError):
        unseal(k2, seal(k1, "secret"))


def test_unseal_plain_object_rejected():
    with pytest.raises(WrongKeyError):
        unseal(Key(1), "not-sealed")


def test_onion_layering_order():
    k1, k2, k3 = fresh_keys(3)
    onion = seal(k1, seal(k2, seal(k3, "core")))
    assert onion.layers == 3
    assert unseal(k3, unseal(k2, unseal(k1, onion))) == "core"
    # Peeling out of order fails.
    with pytest.raises(WrongKeyError):
        unseal(k2, onion)


def test_keys_are_unique():
    a, b = fresh_keys(2)
    assert a != b
    # the id is the whole identity: unseal matches on it alone, so two
    # deployments' first keys are the same key (they never meet)
    assert fresh_keys(1) == fresh_keys(1) == [Key(1)]


def test_derive_is_deterministic():
    assert Key.derive("a", 1) == Key.derive("a", 1)
    assert Key.derive("a", 1) != Key.derive("a", 2)


def test_key_exchange_agrees():
    a = KeyExchange.initiate("alice", "bob", nonce=7)
    b = KeyExchange.respond("alice", "bob", nonce=7)
    assert a == b


def test_key_exchange_differs_across_sessions():
    assert KeyExchange.initiate("alice", "bob", 1) != KeyExchange.initiate(
        "alice", "bob", 2
    )


@given(st.integers(min_value=1, max_value=8))
def test_layers_count_matches_wrapping(n):
    keys = fresh_keys(n)
    obj = "payload"
    for k in keys:
        obj = seal(k, obj)
    assert isinstance(obj, Sealed) and obj.layers == n
    for k in reversed(keys):
        obj = unseal(k, obj)
    assert obj == "payload"
