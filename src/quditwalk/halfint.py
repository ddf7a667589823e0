"""Exact half-integer arithmetic.

Spin values j and magnetic indices m live on the lattice Z/2.  Storing the
doubled value as a plain int keeps every comparison and index computation
exact; floats only appear at the boundary when a caller asks for one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = ["HalfInt", "walk_index", "components", "dimension", "doubled_channels"]


@dataclass(frozen=True, order=True)
class HalfInt:
    """A number of the form n/2 with n an integer, stored as ``doubled = n``."""

    doubled: int

    @staticmethod
    def parse(value) -> "HalfInt":
        """Coerce integers, reals, strings like ``"3/2"``, or HalfInt to HalfInt.

        Any ``numbers.Integral`` or ``numbers.Real`` counts, numpy scalars
        included; bools do not.  Reals and fraction strings must land
        exactly on the half-integer lattice; anything else raises
        DomainError.
        """
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):
            raise DomainError(f"not a half-integer: {value!r}")
        if isinstance(value, numbers.Integral):
            return HalfInt(2 * int(value))
        if isinstance(value, numbers.Real):
            # doubled in the value's own type, so a Fraction stays exact
            try:
                doubled = round(2 * value)
            except (ValueError, OverflowError):  # nan, inf
                raise DomainError(f"not a half-integer: {value!r}") from None
            if 2 * value != doubled:
                raise DomainError(f"not a half-integer: {value!r}")
            return HalfInt(int(doubled))
        if isinstance(value, str):
            try:
                frac = Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"not a half-integer: {value!r}") from None
            if frac.denominator not in (1, 2):
                raise DomainError(f"not a half-integer: {value!r}")
            return HalfInt(int(frac * 2))
        raise DomainError(f"not a half-integer: {value!r}")

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def __float__(self) -> float:
        return self.doubled / 2.0

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.doubled)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def walk_index(value) -> int:
    """Validate a spin quantum number j >= 1/2 and return its doubled value."""
    j = HalfInt.parse(value)
    if j.doubled < 1:
        raise DomainError(f"spin must be at least 1/2, got {j}")
    return j.doubled


def _require_nonneg_int(value, name: str) -> int:
    """``value`` as an int, if it is a real number equal to a nonnegative
    integer; any other real, inf and nan included, raises DomainError."""
    try:
        ok = value == int(value) and value >= 0
    except (ValueError, OverflowError):  # int(nan), int(inf)
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _weight_indices(j, m) -> tuple[int, int]:
    """Doubled (j, m) of a channel weight: 0 <= m <= j with j - m an
    integer; any other m raises DomainError."""
    tj = walk_index(j)
    tm = HalfInt.parse(m).doubled
    if tm < 0 or tm > tj or (tj - tm) % 2 != 0:
        raise DomainError(f"channel m = {HalfInt(tm)} invalid for j = {HalfInt(tj)}")
    return tj, tm


def components(j) -> tuple[HalfInt, ...]:
    """Magnetic quantum numbers m = j, j-1, ..., -j in descending order."""
    tj = walk_index(j)
    return tuple(HalfInt(tm) for tm in range(tj, -tj - 1, -2))


def dimension(j) -> int:
    """Number of internal components, 2j + 1."""
    return walk_index(j) + 1


def doubled_channels(tj: int) -> range:
    """Doubled m of every channel m > 0 at doubled spin tj, smallest first."""
    return range(2 - tj % 2, tj + 1, 2)
