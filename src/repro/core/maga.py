"""M-Address Generation Algorithm (MAGA) — the reversible hash family.

The paper's collision-avoidance mechanism (Sec IV-B3) rests on hash
functions built from XOR and shift so that they are *invertible in their
last variable*: given a target hash value and random draws for the other
variables, the last variable can be solved so the full tuple lands in the
target value class.  Equation (1) of the paper:

    f(x, y, z) = [(x⊕A0)>>A1] ⊕ [(x⊕A2)<<A3]
               ⊕ [(y⊕B0)>>B1] ⊕ [(y⊕B2)<<B3]
               ⊕ [(z⊕C0)>>C1]

with the inverse (2) solving for z.  As printed, the construction loses the
top ``C1`` bits of ``(z⊕C0)`` to the right shift, so the printed inverse
only round-trips when hash values are confined to ``W−C1`` bits.  We
implement exactly that masked construction: a :class:`ReversibleHash` over
fixed-width unsigned variables whose value space is ``solve_width − shift``
bits, generalized to any number of variables of heterogeneous widths (the
paper needs the 3-variable ``f``, the 4-variable ``F`` and the 2-variable
split ``h`` that realizes ``g``).

Every Mimic Node gets an independently drawn parameterization
(:meth:`ReversibleHash.random`), which is the paper's defence against an
adversary reconstructing a single global hash function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

__all__ = ["ReversibleHash", "HashParams"]


def _mask(bits: int) -> int:
    return (1 << bits) - 1


@dataclass(frozen=True)
class HashParams:
    """Per-variable mixing parameters (A0, A1, A2, A3 in the paper)."""

    xor_a: int
    shr: int
    xor_b: int
    shl: int


@dataclass(frozen=True)
class ReversibleHash:
    """An n-variable XOR/shift hash invertible in its last variable.

    ``widths[i]`` is the bit width of variable ``i``; the last variable is
    the solvable one.  ``shift`` is the paper's C1: the right shift applied
    to the solvable variable, which determines the value space
    ``value_bits = widths[-1] - shift``.
    """

    widths: tuple[int, ...]
    params: tuple[HashParams, ...]  # one per non-solvable variable
    solve_xor: int  # C0
    shift: int  # C1

    def __post_init__(self) -> None:
        if len(self.widths) < 1:
            raise ValueError("need at least one variable")
        if len(self.params) != len(self.widths) - 1:
            raise ValueError("need params for every non-solvable variable")
        if not 0 < self.shift < self.widths[-1]:
            raise ValueError("shift must be in (0, solve_width)")
        for w in self.widths:
            if w < 2:
                raise ValueError("variable width must be >= 2 bits")

    # ------------------------------------------------------------------
    @property
    def n_vars(self) -> int:
        """Number of variables the hash takes."""
        return len(self.widths)

    @property
    def solve_width(self) -> int:
        """Bit width of the solvable (last) variable."""
        return self.widths[-1]

    @property
    def value_bits(self) -> int:
        """Width of the hash value space (W − C1)."""
        return self.solve_width - self.shift

    @property
    def n_values(self) -> int:
        """Size of the hash value space."""
        return 1 << self.value_bits

    # ------------------------------------------------------------------
    # The masks and parameters every solve reads, worked out once per hash:
    # each labelled segment draw solves two hashes.
    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per non-solvable variable: ``(width mask, xor_a, shr, xor_b,
        shl)``."""
        return tuple(
            (_mask(w), p.xor_a, p.shr, p.xor_b, p.shl)
            for w, p in zip(self.widths, self.params)
        )

    @cached_property
    def _value_mask(self) -> int:
        return _mask(self.value_bits)

    @cached_property
    def _solve_mask(self) -> int:
        return _mask(self.solve_width)

    def _free_mix(self, free_vars: Sequence[int]) -> int:
        """XOR of the non-solvable variables' mixing contributions."""
        acc = 0
        for (w_mask, xor_a, shr, xor_b, shl), v in zip(self._terms, free_vars):
            v &= w_mask
            acc ^= ((v ^ xor_a) >> shr) ^ (((v ^ xor_b) << shl) & w_mask)
        return acc & self._value_mask

    def value(self, *variables: int) -> int:
        """Hash value of a full tuple, in ``[0, 2**value_bits)``."""
        if len(variables) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} variables")
        *free, z = variables
        z_part = ((z ^ self.solve_xor) & self._solve_mask) >> self.shift
        return (self._free_mix(free) ^ z_part) & self._value_mask

    def solve(self, target: int, *free_vars: int, low_bits: int = 0) -> int:
        """The paper's inverse: the last variable making the tuple hash to
        ``target`` given the other variables.

        The right shift in the hash discards the solved variable's low
        ``shift`` bits, so *any* value works there — ``low_bits`` fills
        them.  The paper's printed inverse implicitly fixes them (to C0's
        low bits), which makes every solved variable share constant low
        bits: an observable fingerprint.  Callers that care about
        indistinguishability must pass random ``low_bits``
        (:meth:`repro.core.collision.MnAddressSpace.draw_label` does)."""
        value_mask = self._value_mask
        if not 0 <= target <= value_mask:
            raise ValueError(
                f"target {target} outside value space [0, {self.n_values})"
            )
        if len(free_vars) != len(self.widths) - 1:
            raise ValueError(f"expected {self.n_vars - 1} free variables")
        if not 0 <= low_bits < (1 << self.shift):
            raise ValueError(f"low_bits needs {self.shift} bits")
        w = (target ^ self._free_mix(free_vars)) & value_mask
        return (((w << self.shift) | low_bits) ^ self.solve_xor) & self._solve_mask

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        rng,
        widths: Sequence[int],
        shift: int,
    ) -> "ReversibleHash":
        """Draw an independent parameterization (one per MN)."""
        widths = tuple(widths)
        params = []
        for w in widths[:-1]:
            params.append(
                HashParams(
                    xor_a=rng.getrandbits(w),
                    shr=rng.randrange(1, max(2, w // 2)),
                    xor_b=rng.getrandbits(w),
                    shl=rng.randrange(1, max(2, w // 2)),
                )
            )
        return cls(
            widths=widths,
            params=tuple(params),
            solve_xor=rng.getrandbits(widths[-1]),
            shift=shift,
        )
