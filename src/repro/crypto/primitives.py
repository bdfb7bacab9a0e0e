"""Functional (toy) crypto primitives.

These model crypto *behaviour*, not strength: sealing binds an object to a
key so only the matching key opens it, key exchange produces a shared secret
both sides can derive, and every seal/open changes the simulated wire bytes
(callers refresh ``content_tag`` after crypto, which is what defeats Tor-style
content correlation in the attack modules).

Do not mistake these for real cryptography — they are simulation artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

__all__ = ["Key", "Sealed", "seal", "unseal", "KeyExchange", "WrongKeyError"]


class WrongKeyError(Exception):
    """Attempted to open a sealed object with the wrong key."""


@dataclass(frozen=True)
class Key:
    """A symmetric key (identity-based toy model).

    :func:`unseal` matches on ``key_id`` alone, so a fresh key's id comes
    from a deployment-wide namespace (``sim.ids("crypto.key")``) or from
    shared material (:meth:`derive`).
    """

    key_id: int
    label: str = ""

    @classmethod
    def derive(cls, *parts: Any) -> "Key":
        """Deterministically derive a key from shared material."""
        digest = hashlib.sha256(repr(parts).encode()).hexdigest()
        return cls(key_id=int(digest[:12], 16), label=f"derived:{digest[:8]}")


@dataclass(frozen=True)
class Sealed:
    """An object sealed under a key. Nested sealing gives onion layers."""

    key_id: int
    inner: Any

    @property
    def layers(self) -> int:
        """Depth of nested sealing (onion layers)."""
        n, obj = 0, self
        while isinstance(obj, Sealed):
            n += 1
            obj = obj.inner
        return n


def seal(key: Key, obj: Any) -> Sealed:
    """Encrypt ``obj`` under ``key``."""
    return Sealed(key_id=key.key_id, inner=obj)


def unseal(key: Key, sealed: Sealed) -> Any:
    """Decrypt one layer; raises :class:`WrongKeyError` on key mismatch."""
    if not isinstance(sealed, Sealed):
        raise WrongKeyError("object is not sealed")
    if sealed.key_id != key.key_id:
        raise WrongKeyError(f"key {key.key_id} cannot open layer {sealed.key_id}")
    return sealed.inner


class KeyExchange:
    """Toy Diffie-Hellman: both halves derive the same session key."""

    @staticmethod
    def initiate(initiator_id: str, responder_id: str, nonce: int) -> Key:
        return Key.derive("dh", initiator_id, responder_id, nonce)

    @staticmethod
    def respond(initiator_id: str, responder_id: str, nonce: int) -> Key:
        return Key.derive("dh", initiator_id, responder_id, nonce)
