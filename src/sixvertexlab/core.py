"""Shared value types and scalar special functions.

Everything downstream works with two kinds of data: nonnegative signatures
(weakly decreasing integer vectors, with their multiplicity maps, the one
enumerator of the strict ones and Atoms, a tuple view of its arrays) and
model parameters pinned to the ferroelectric chain v^{-1} > u > s > 1 with
s = q^{-1/2}.

All types here are immutable values and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    def __init__(self, parts: Iterable[int]):
        given = tuple(parts)
        object.__setattr__(self, "parts", tuple(int(p) for p in given))
        if self.parts != given:
            raise ValueError(f"parts must be integers, got {given}")
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")

    def __repr__(self) -> str:
        return f"Signature({list(self.parts)})"


def strict_atoms(k: int, lo: int, hi: int) -> np.ndarray:
    """Every strict signature mu_1 > ... > mu_k with parts in [lo, hi], as
    the rows of an int (n, k) array in colexicographic order: the package's
    one strict-tuple enumerator.

    Colex order sorts by the smallest part first, so the atoms with smallest
    part m are the (k-1)-part atoms above m, a suffix of their own colex
    list, followed by m; each part count is filled in place that way from
    the pairs, and no dense box or copy of the result is made."""
    if k < 1:
        raise ValueError(f"need at least one part, got k = {k}")
    if k == 1:
        return np.arange(lo, hi + 1)[:, None]
    small, large = np.triu_indices(max(hi - lo + 1, 0), 1)
    out = lo + np.stack((large, small), axis=1)
    for j in range(3, k + 1):
        prev, parts = out, range(lo, hi + 1)
        starts = np.searchsorted(prev[:, -1], parts, side="right").tolist()
        out = np.empty((len(prev) * len(parts) - sum(starts), j), prev.dtype)
        pos = 0
        for m, start in zip(parts, starts):
            block = out[pos:pos + len(prev) - start]
            block[:, :-1], block[:, -1] = prev[start:], m
            pos += len(block)
    return out


class Atoms(Sequence):
    """An int (n, k) atom array seen as a sequence of part tuples: len is
    O(1), indexing and iteration give tuples of ints, slices give views,
    np.asarray hands out the array itself, and it equals the
    tuple-of-tuples form.  It offers no way to write the array."""

    __slots__ = ("_array",)
    __hash__ = None

    def __init__(self, array: np.ndarray):
        self._array = array

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Atoms(self._array[i])
        return tuple(self._array[i].tolist())

    def __iter__(self):
        for start in range(0, len(self._array), 4096):
            yield from map(tuple, self._array[start:start + 4096].tolist())

    def __array__(self, dtype=None, copy=None):
        return self._array.astype(self._array.dtype if dtype is None
                                  else dtype, copy=bool(copy))

    def __eq__(self, other):
        if isinstance(other, Atoms):
            return np.array_equal(self._array, other._array)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Atoms({self._array!r})"


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


def admissible_ratio(u: float, v: float, s: float) -> float:
    """r = |((u-s)/(1-su)) ((v-s)/(1-sv))|: one more column of support
    multiplies a Cauchy-type or pmf term by about r."""
    return abs((u - s) / (1.0 - s * u) * (v - s) / (1.0 - s * v))


def pair_admissible(u: float, v: float, s: float) -> bool:
    """r < 1 (admissible_ratio), the condition that makes the Cauchy-type
    sums absolutely convergent."""
    return admissible_ratio(u, v, s) < 1.0
