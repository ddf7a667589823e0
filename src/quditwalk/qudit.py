"""Internal states of the walker.

A qudit is a (2j+1)-component complex unit vector.  Component i holds the
amplitude of the magnetic number m = j - i, matching the row ordering of the
coin matrices.  Vectors are normalized on construction, so callers may hand
in any nonzero finite vector.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .halfint import HalfInt, dimension, walk_index

__all__ = ["Qudit", "preset_qudit", "PRESET_NAMES"]


class Qudit:
    """A normalized internal state for spin j, components m-descending."""

    __slots__ = ("tj", "amplitudes")

    def __init__(self, j, amplitudes):
        self.tj = walk_index(j)
        vec = np.asarray(amplitudes, dtype=complex).ravel()
        if vec.shape[0] != self.tj + 1:
            raise DomainError(
                f"qudit for j = {HalfInt(self.tj)} needs {self.tj + 1} components, "
                f"got {vec.shape[0]}"
            )
        if not np.all(np.isfinite(vec)):
            raise DomainError("qudit amplitudes must be finite")
        if not vec.any():
            raise DomainError("qudit must be a nonzero vector")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if not np.finfo(float).tiny ** 0.5 <= norm < np.inf:
            # the squares overflowed or left the normal range: scale first
            vec = (vec.view(float) / np.abs(vec.view(float)).max()).view(complex)
            norm = np.linalg.norm(vec)
        self.amplitudes = vec / norm

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.tj)

    @property
    def dim(self) -> int:
        return self.tj + 1

    def component(self, m) -> complex:
        """Amplitude of magnetic number m."""
        tm = HalfInt.parse(m).doubled
        if abs(tm) > self.tj or (tm - self.tj) % 2 != 0:
            raise DomainError(f"no component m = {HalfInt(tm)} for j = {self.j}")
        return complex(self.amplitudes[(self.tj - tm) // 2])

    def __repr__(self) -> str:
        return f"Qudit(j={self.j}, dim={self.dim})"


# Asymmetric 12-component vector used by the comparison examples; stored
# unnormalized, Qudit takes care of the 1/4 factor.
_ASYM12 = (
    1 + 1j, 0, 1 + 1j, 1, 1j, 1j, 1 + 1j, 1j, 1j, 1 + 1j, 1j, 1 + 1j,
)

PRESET_NAMES = ("up", "paper-sym", "fig1b")


def preset_qudit(name: str, j) -> Qudit:
    """Build a named initial state.

    "up" puts all weight on m = j.  "paper-sym" splits between the extreme
    components as (q, 0, ..., 0, conj(q)) with q = (1+i)/2, which makes the
    walk reflection symmetric when alpha = gamma = 0.  "fig1b" is a fixed
    asymmetric 12-component vector and requires 2j+1 = 12.
    """
    dim = dimension(j)
    if name == "up":
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return Qudit(j, vec)
    if name == "paper-sym":
        vec = np.zeros(dim, dtype=complex)
        q = 0.5 * (1 + 1j)
        vec[0] = q
        vec[-1] = q.conjugate()
        return Qudit(j, vec)
    if name == "fig1b":
        if dim != 12:
            raise DomainError(f"preset 'fig1b' needs 2j+1 = 12, got {dim}")
        return Qudit(j, _ASYM12)
    raise DomainError(f"unknown qudit preset {name!r}")
