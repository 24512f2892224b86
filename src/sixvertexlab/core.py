"""Shared value types and scalar special functions.

Everything downstream works with two kinds of data: nonnegative signatures
(weakly decreasing integer vectors, with their multiplicity maps and the one
enumerator of the strict ones) and model parameters pinned to the
ferroelectric chain v^{-1} > u > s > 1 with s = q^{-1/2}.

All types here are immutable values and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Vertical occupancies beyond this are refused everywhere; every in-scope
# computation has bounded vertical multiplicity.
MAX_VERTEX_OCCUPANCY = 64


def q_pochhammer(a, q, n: int):
    """(a; q)_n = prod_{j=0}^{n-1} (1 - a q^j), with the empty product for n = 0."""
    if n < 0 or n != int(n):
        raise ValueError(f"q-Pochhammer order must be a nonnegative integer, got {n}")
    out = 1.0
    aq = a
    for _ in range(int(n)):
        out = out * (1.0 - aq)
        aq = aq * q
    return out


def delta_parameter(a1: float, a2: float, b1: float, b2: float,
                    c1: float, c2: float) -> float:
    """Anisotropy (a1 a2 + b1 b2 - c1 c2) / (2 sqrt(a1 a2 b1 b2)) of a six-vertex
    weight table; all six weights must be positive."""
    weights = (a1, a2, b1, b2, c1, c2)
    if any(w <= 0 for w in weights):
        raise ValueError(f"all six weights must be positive, got {weights}")
    return (a1 * a2 + b1 * b2 - c1 * c2) / (2.0 * math.sqrt(a1 * a2 * b1 * b2))


def as_parts(sig) -> tuple[int, ...]:
    """Coerce a Signature or iterable of ints to a canonical parts tuple."""
    if isinstance(sig, Signature):
        return sig.parts
    parts = tuple(int(p) for p in sig)
    return parts


@dataclass(frozen=True)
class Signature:
    """A weakly decreasing integer vector lambda_1 >= ... >= lambda_n, held
    as its dense parts tuple."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        given = tuple(parts)
        object.__setattr__(self, "parts", tuple(int(p) for p in given))
        if self.parts != given:
            raise ValueError(f"parts must be integers, got {given}")
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    @property
    def size(self) -> int:
        """|lambda| = sum of the parts."""
        return sum(self.parts)

    def __repr__(self) -> str:
        return f"Signature({list(self.parts)})"


def strict_atoms(k: int, lo: int, hi: int) -> np.ndarray:
    """Every strict signature mu_1 > ... > mu_k with parts in [lo, hi], as
    the rows of an int (n, k) array in colexicographic order: the package's
    one strict-tuple enumerator."""
    grid = np.ogrid[(slice(hi - lo + 1),) * k]
    increasing = np.ones((hi - lo + 1,) * k, dtype=bool)
    for low, high in zip(grid, grid[1:]):
        increasing &= low < high
    # row-major order of increasing tuples is colex order of their reversals
    return lo + np.argwhere(increasing)[:, ::-1]


def multiplicities(parts) -> dict[int, int]:
    """m_i = #{j : parts_j = i}, unchecked: the row transfer calls it often."""
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


@dataclass(frozen=True)
class ModelParams:
    """Model parameters (q, u, v) with s = q^{-1/2}.

    The full chain v^{-1} > u > s > 1 is validated eagerly here so downstream
    code never re-checks it.
    """

    q: float
    u: float
    v: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        s = self.q ** -0.5
        if not (self.u > s):
            raise ValueError(f"u must exceed s = q^(-1/2) = {s:.6g}, got u = {self.u}")
        if not (self.v > 0.0):
            raise ValueError(f"v must be positive, got {self.v}")
        if not (self.u * self.v < 1.0):
            raise ValueError(f"need v < 1/u (u*v = {self.u * self.v:.6g})")

    @property
    def s(self) -> float:
        return self.q ** -0.5

    @property
    def s2(self) -> float:
        """s^2 = 1/q, kept exact so blocked vertex weights vanish identically."""
        return 1.0 / self.q


def admissible_ratio(u: float, v: float, s: float) -> float:
    """r = |((u-s)/(1-su)) ((v-s)/(1-sv))|: one more column of support
    multiplies a Cauchy-type or pmf term by about r."""
    return abs((u - s) / (1.0 - s * u) * (v - s) / (1.0 - s * v))


def pair_admissible(u: float, v: float, s: float) -> bool:
    """r < 1 (admissible_ratio), the condition that makes the Cauchy-type
    sums absolutely convergent."""
    return admissible_ratio(u, v, s) < 1.0
