"""Network address value types.

Lightweight, hashable wrappers over integers for IPv4 and MAC addresses with
the usual dotted/colon text forms.  MIC rewrites these fields at Mimic Nodes,
so the whole system passes them around constantly — they are immutable and
cheap to compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, total_ordering
from typing import Iterable, Union

__all__ = ["IPv4Addr", "MacAddr", "ip", "mac", "Subnet"]


@lru_cache(maxsize=1 << 16)
def _dotted_quad(v: int) -> str:
    """Text form of a 32-bit address, memoised so equal addresses share one
    string (trace rows and header tuples then hold the same object)."""
    return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"


@total_ordering
@dataclass(frozen=True, slots=True)
class IPv4Addr:
    """An IPv4 address stored as a 32-bit unsigned integer.

    ``text`` is the dotted quad, rendered once at construction: every traced
    hop records both endpoints, so per-packet code reads ``addr.text``
    rather than calling ``str(addr)``.  Build addresses at set-up time, not
    per packet.
    """

    value: int
    text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 value out of range: {self.value!r}")
        object.__setattr__(self, "text", _dotted_quad(self.value))

    @classmethod
    def parse(cls, text: str) -> "IPv4Addr":
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"IPv4Addr({self.text!r})"

    def __int__(self) -> int:
        return self.value

    def __lt__(self, other: "IPv4Addr") -> bool:
        return self.value < other.value

    def __add__(self, offset: int) -> "IPv4Addr":
        return IPv4Addr(self.value + offset)


@total_ordering
@dataclass(frozen=True, slots=True)
class MacAddr:
    """A MAC address stored as a 48-bit unsigned integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFF:
            raise ValueError(f"MAC value out of range: {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "MacAddr":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"malformed MAC address: {text!r}")
        value = 0
        for part in parts:
            byte = int(part, 16)
            if not 0 <= byte <= 255:
                raise ValueError(f"byte out of range in {text!r}")
            value = (value << 8) | byte
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return ":".join(f"{(v >> shift) & 255:02x}" for shift in range(40, -8, -8))

    def __repr__(self) -> str:
        return f"MacAddr({str(self)!r})"

    def __int__(self) -> int:
        return self.value

    def __lt__(self, other: "MacAddr") -> bool:
        return self.value < other.value


def ip(spec: Union[str, int, IPv4Addr]) -> IPv4Addr:
    """Coerce a string, int or IPv4Addr to :class:`IPv4Addr`."""
    if isinstance(spec, IPv4Addr):
        return spec
    if isinstance(spec, int):
        return IPv4Addr(spec)
    return IPv4Addr.parse(spec)


def mac(spec: Union[str, int, MacAddr]) -> MacAddr:
    """Coerce a string, int or MacAddr to :class:`MacAddr`."""
    if isinstance(spec, MacAddr):
        return spec
    if isinstance(spec, int):
        return MacAddr(spec)
    return MacAddr.parse(spec)


@dataclass(frozen=True, slots=True)
class Subnet:
    """A CIDR block, e.g. ``Subnet.parse("10.0.0.0/24")``."""

    network: IPv4Addr
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        if int(self.network) & ~self.mask:
            raise ValueError(
                f"network {self.network} has host bits set for /{self.prefix_len}"
            )

    @classmethod
    def parse(cls, text: str) -> "Subnet":
        net_text, _, len_text = text.partition("/")
        if not len_text:
            raise ValueError(f"missing prefix length in {text!r}")
        return cls(ip(net_text), int(len_text))

    @property
    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        return (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix_len)

    def __contains__(self, addr: Union[IPv4Addr, str, int]) -> bool:
        return (int(ip(addr)) & self.mask) == int(self.network)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_len}"

    def hosts(self) -> Iterable[IPv4Addr]:
        """All addresses in the block except network and broadcast."""
        base = int(self.network)
        if self.prefix_len >= 31:
            yield from (IPv4Addr(base + i) for i in range(self.size))
            return
        for offset in range(1, self.size - 1):
            yield IPv4Addr(base + offset)

    def nth(self, n: int) -> IPv4Addr:
        """The n-th address of the block (0 = network address)."""
        if not 0 <= n < self.size:
            raise ValueError(f"host index {n} out of range for {self}")
        return IPv4Addr(int(self.network) + n)
