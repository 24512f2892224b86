"""Explicit enumeration of up-right path collections and their weights.

Collections live on the window Z_{>=0} x {1..n}.  Two boundary families:

* F-type: N paths enter at the bottom at the columns of mu, one extra path
  enters from the left edge of every row, and all N + n paths exit the top
  at the columns of lam.
* Gc-type: N paths enter at the bottom at mu and exit the top at lam; no
  left entries.

No two paths ever share a horizontal edge (j in {0, 1}); they may share
vertical edges.  A collection is its chain of cross-sections mu = lam^0,
lam^1, ..., lam^n = lam, and one rule, row_vertices, derives the vertex row
between two consecutive ones.  Enumeration walks row by row over
cross-sections, cuts a branch inside the row recursion as soon as a part can
no longer reach its rank in lam, and lists each row's top cross-sections
once per distinct bottom cross-section.

This module is deliberately independent of the transfer-matrix evaluators:
it derives explicit vertex rows and multiplies single-vertex weights, and
serves as the brute-force oracle for them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import ModelParams, as_parts, multiplicities
from .weights import vertex_weight_raw

TYPICAL_TYPES = frozenset({(0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)})

Vertex = tuple[int, int, int, int]


def row_vertices(bottom, top, n_cols: int,
                 left_entry: bool) -> tuple[Vertex, ...]:
    """The vertex types (i1, j1, i2, j2) at x = 0..n_cols-1 of the row between
    the cross-sections bottom and top (parts in any order): i1 and i2 count
    the parts at x, a left entry sets the first j1 = 1, and conservation
    fixes each horizontal edge from left to right, j2 = i1 + j1 - i2.  An
    edge outside {0, 1} means the sections do not interlace."""
    below, above = multiplicities(bottom), multiplicities(top)
    h = 1 if left_entry else 0
    row = []
    for x in range(n_cols):
        i1, i2 = below.get(x, 0), above.get(x, 0)
        j2 = i1 + h - i2
        row.append((i1, h, i2, j2))
        h = j2
    return tuple(row)


@dataclass(frozen=True)
class PathCollection:
    """A concrete configuration: its chain of cross-sections plus boundary
    data.

    sections[y] is the top cross-section of row y + 1 (parts decreasing), so
    sections[-1] is lam; rows derives the vertex grid from them by
    row_vertices on each access, and nothing derived is kept: rows[y][x] is
    the vertex at lattice position (x, y+1), columns run 0..n_cols-1 with
    everything beyond the window empty.
    """

    family: str                     # "F" or "Gc"
    mu: tuple[int, ...]
    lam: tuple[int, ...]
    n_rows: int
    n_cols: int
    sections: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> tuple[tuple[Vertex, ...], ...]:
        left_entry = self.family == "F"
        return tuple(row_vertices(bottom, top, self.n_cols, left_entry)
                     for bottom, top in zip((self.mu,) + self.sections,
                                            self.sections))

    def vertex_types(self) -> Iterator[Vertex]:
        for row in self.rows:
            yield from row

    def to_json_grid(self) -> dict:
        return {
            "family": self.family,
            "mu": list(self.mu),
            "lam": list(self.lam),
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "vertices": [[list(v) for v in row] for row in self.rows],
        }


def _row_configurations(bottom: dict[int, int], left_entry: bool, hi, lo):
    """All ways one row can route its paths, as their top cross-sections.

    bottom maps column -> incoming vertical multiplicity; a left entry adds a
    horizontal path at x = 0.  Empty stretches with no horizontal path are
    skipped; a horizontal path crossing empty columns steps on in a loop,
    turning up at each before it goes on.  The j-th top part placed, left to
    right, must lie in [lo[j], hi[j]].
    """
    occupied = sorted(bottom)
    results: list[tuple[int, ...]] = []
    top_cols: list[int] = []

    def rec(x: int, h: int):
        if h == 0:
            i = bisect_left(occupied, x)
            if i == len(occupied):
                results.append(tuple(reversed(top_cols)))
                return
            x = occupied[i]
        j = len(top_cols)
        while h and x not in bottom and x <= hi[j]:
            if x >= lo[j]:
                top_cols.append(x)
                rec(x + 1, 0)
                top_cols.pop()
            x += 1
        if x > hi[j]:
            return  # the next part placed lies at or right of x
        i1 = bottom.get(x, 0)
        for j2 in (0, 1):
            i2 = i1 + h - j2
            if i2 < 0 or i2 and x < lo[j + i2 - 1]:
                continue
            if i2:
                top_cols.extend([x] * i2)
            rec(x + 1, j2)
            if i2:
                del top_cols[-i2:]

    rec(0, 1 if left_entry else 0)
    return results


def _enumerate_chains(mu, lam, n: int, family: str) -> list[PathCollection]:
    if n < 0:
        raise ValueError(f"row count must be nonnegative, got {n}")
    mu, lam = as_parts(mu), as_parts(lam)
    left_entry = family == "F"
    if len(lam) != len(mu) + n * left_entry:
        raise ValueError(f"{family}: need len(lam) = len(mu)"
                         f"{' + n' if left_entry else ''}, got len(lam) = "
                         f"{len(lam)}, len(mu) = {len(mu)}, n = {n}")
    if (mu and mu[-1] < 0) or (lam and lam[-1] < 0):
        raise ValueError("boundary signatures must be nonnegative")
    # Paths only move right, so no collection exists unless mu_i <= lam_i.
    if any(m > c for m, c in zip(mu, lam)):
        return []
    n_cols = (lam[0] + 2) if lam else (mu[0] + 2 if mu else 1)
    chain: list[tuple[int, ...]] = []
    configurations: dict[tuple[int, ...], list] = {}  # per bottom cross-section
    out: list[PathCollection] = []

    def rec(bottom_parts: tuple[int, ...], row: int):
        if row == n:
            if bottom_parts == lam:
                out.append(PathCollection(family=family, mu=mu, lam=lam,
                                          n_rows=n, n_cols=n_cols,
                                          sections=tuple(chain)))
            return
        # Part i of the top never exceeds lam_i; in F-type rows the rows_left
        # parts of lam below it are filled by paths yet to enter, so it is at
        # least lam_{i + rows_left}.  The j-th part placed has rank total-1-j.
        # They depend on the bottom alone: in F rows its length fixes rows_left.
        total, rows_left = len(bottom_parts) + left_entry, n - row - 1
        lo = lam[rows_left:rows_left + total] if left_entry else (0,) * total
        if bottom_parts not in configurations:
            configurations[bottom_parts] = _row_configurations(
                multiplicities(bottom_parts), left_entry,
                lam[:total][::-1], lo[::-1])
        for top in configurations[bottom_parts]:
            chain.append(top)
            rec(top, row + 1)
            chain.pop()

    rec(mu, 0)
    del rec  # it refers to itself, so it would hold out until a gc pass
    return out


def enumerate_F_collections(mu, lam, n: int) -> list[PathCollection]:
    """All F-type collections routing mu (length N) to lam (length N + n)
    across n rows with one left entry per row.  Incompatible boundaries give
    the empty list."""
    return _enumerate_chains(mu, lam, n, "F")


def enumerate_Gc_collections(mu, lam, n: int) -> list[PathCollection]:
    """All Gc-type collections routing mu to lam (same length) across n rows."""
    return _enumerate_chains(mu, lam, n, "Gc")


def collection_weight(pc: PathCollection, spectral, params: ModelParams,
                      conjugated: bool = False) -> complex:
    """Product of single-vertex weights over the window, row j weighted with
    spectral[j]; trailing empty vertices contribute 1."""
    spectral = tuple(spectral)
    if len(spectral) != pc.n_rows:
        raise ValueError(f"need one spectral value per row: {len(spectral)} "
                         f"vs {pc.n_rows}")
    q, s = params.q, params.s
    out: complex = 1.0
    for y, row in enumerate(pc.rows):
        u = spectral[y]
        for v4 in row:
            if v4 != (0, 0, 0, 0):
                out *= vertex_weight_raw(*v4, q, s, u, conjugated)
    return out


def is_typical(pc: PathCollection) -> bool:
    """True iff every vertex type lies in {(0,0;0,0), (0,1;0,1), (0,1;1,0),
    (1,0;0,1)}."""
    return all(v in TYPICAL_TYPES for v in pc.vertex_types())


def count_collections_formula(lam) -> int:
    """|P_{lam/empty}| = prod_{i<j} (lam_i - lam_j + j - i)/(j - i) as an exact
    integer (big-integer arithmetic; the product is integral for strict lam)."""
    lam = as_parts(lam)
    if not all(a > b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"counting formula requires a strict signature, got {lam}")
    k = len(lam)
    out = Fraction(1)
    for i in range(k):
        for j in range(i + 1, k):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    if out.denominator != 1:
        raise AssertionError(f"count formula gave non-integer {out} for {lam}")
    return int(out)


def typical_count_lower_bound(lam) -> Fraction:
    """prod_{i<j} (lam_i - lam_j - j + i)/(j - i); a lower bound for the number
    of typical collections whenever every factor is positive."""
    lam = as_parts(lam)
    k = len(lam)
    out = Fraction(1)
    for i in range(k):
        for j in range(i + 1, k):
            out *= Fraction(lam[i] - lam[j] - (j - i), j - i)
    return out
