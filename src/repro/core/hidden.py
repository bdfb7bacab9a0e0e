"""Hidden service registry (Sec IV-D, receiver anonymity).

MIC needs no rendezvous points: the MC itself maps service nicknames to
responder locations.  A hidden receiver registers out of band; initiators
request channels by nickname and never learn the responder's address —
the entry address is all they see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HiddenService", "HiddenServiceMap"]


@dataclass(frozen=True)
class HiddenService:
    nickname: str
    host_name: str
    port: int


class HiddenServiceMap:
    """MC-private nickname → responder mapping."""

    def __init__(self) -> None:
        self._services: dict[str, HiddenService] = {}

    def register(self, nickname: str, host_name: str, port: int) -> HiddenService:
        """Bind a nickname to a responder; rejects duplicates."""
        if nickname in self._services:
            raise ValueError(f"nickname {nickname!r} already registered")
        svc = HiddenService(nickname, host_name, port)
        self._services[nickname] = svc
        return svc

    def resolve(self, nickname: str) -> Optional[HiddenService]:
        """The service behind a nickname, or None."""
        return self._services.get(nickname)

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, nickname: str) -> bool:
        return nickname in self._services
