"""Explicit enumeration of up-right path collections and their weights.

Collections live on the window Z_{>=0} x {1..n}.  Two boundary families:

* F-type: N paths enter at the bottom at the columns of mu, one extra path
  enters from the left edge of every row, and all N + n paths exit the top
  at the columns of lam.
* Gc-type: N paths enter at the bottom at mu and exit the top at lam; no
  left entries.

No two paths ever share a horizontal edge (j in {0, 1}); they may share
vertical edges.  A collection is a tuple record of its chain of cross-sections
mu = lam^0, lam^1, ..., lam^n = lam, and one rule, row_vertices, walks the row
between two consecutive ones over the columns a path touches: the weights read
only those vertices, and rows fills in the empty ones.  With j in {0, 1},
conservation makes each row's top cross-section interlace its bottom one, so
a row's tops are a product of intervals between bottom parts, each clipped to
where a part can still reach its rank in lam.  Enumeration extends every
partial chain one row level at a time and lists each row's tops once per
distinct bottom cross-section.

This module is deliberately independent of the transfer-matrix evaluators:
it derives explicit vertex rows and multiplies single-vertex weights, and
serves as the brute-force oracle for them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple

from .core import ModelParams, as_parts, multiplicities
from .weights import vertex_weight_raw

TYPICAL_TYPES = frozenset({(0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)})

Vertex = tuple[int, int, int, int]


def row_vertices(bottom, top, n_cols: int, left_entry: bool):
    """(x, vertex) for the non-empty vertex types (i1, j1, i2, j2) at x =
    0..n_cols-1, left to right, of the row between the cross-sections bottom
    and top (parts in any order): i1 and i2 count the parts at x, a left
    entry sets the first j1 = 1, and conservation fixes each horizontal edge
    from left to right, j2 = i1 + j1 - i2, so a column between parts holds
    (0, h, 0, h) or nothing.  An edge outside {0, 1} means the sections do
    not interlace."""
    h, x = (1 if left_entry else 0), 0
    for col in sorted({*bottom, *top, n_cols}):
        if h:   # a horizontal path crosses the columns before col
            for x in range(x, col):
                yield x, (0, h, 0, h)
        if col == n_cols:
            return
        i1, i2 = bottom.count(col), top.count(col)
        j2 = i1 + h - i2
        yield col, (i1, h, i2, j2)
        h, x = j2, col + 1


class PathCollection(NamedTuple):
    """A concrete configuration, as an immutable tuple record: its chain of
    cross-sections plus boundary data.

    sections[y] is the top cross-section of row y + 1 (parts decreasing), so
    sections[-1] is lam; walks runs row_vertices on each row, rows fills in
    its empty vertices, and nothing derived is kept: rows[y][x] is the
    vertex at lattice position (x, y+1), columns run 0..n_cols-1 with
    everything beyond the window empty.
    """

    family: str                     # "F" or "Gc"
    mu: tuple[int, ...]
    lam: tuple[int, ...]
    n_rows: int
    n_cols: int
    sections: tuple[tuple[int, ...], ...]

    def walks(self) -> Iterator[Iterator[tuple[int, Vertex]]]:
        left_entry = self.family == "F"
        for bottom, top in zip((self.mu,) + self.sections, self.sections):
            yield row_vertices(bottom, top, self.n_cols, left_entry)

    @property
    def rows(self) -> tuple[tuple[Vertex, ...], ...]:
        return tuple(tuple(row.get(x, (0, 0, 0, 0))
                           for x in range(self.n_cols))
                     for row in map(dict, self.walks()))

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
    """All ways one row can route its paths, as their top cross-sections
    (parts decreasing), in lexicographic order of their parts read ascending.

    bottom maps column -> incoming vertical multiplicity; a left entry adds a
    horizontal path at x = 0.  With b_1 <= ... <= b_m the bottom's parts, the
    j-th top part placed, left to right, lies in [b_(j-1), b_j] (b_0 = 0) in
    an F row and in [b_j, b_(j+1)] in a Gc row, the last one in [b_m, hi],
    and each in [lo[j], hi[j]].  This interlacing rule is conservation,
    i1 + j1 = i2 + j2, summed over the columns up to x: the top has
    #{b_i <= x} + e - h parts <= x, with e = 1 for a left entry and h the
    horizontal edge right of x.  So h in {0, 1} holds just when the j-th
    smallest top part is at most b_j and at least b_(j-1) in an F row, at
    least b_j and at most b_(j+1) in a Gc row.  The tops are the product of
    these ranges.
    """
    parts = [x for x in sorted(bottom) for _ in range(bottom[x])]
    starts = [0, *parts] if left_entry else parts
    ends = [*(parts if left_entry else parts[1:]), *hi[-1:]]
    return [top[::-1] for top in product(*[
        range(a if a > floor else floor, (b if b < ceil else ceil) + 1)
        for a, b, floor, ceil in zip(starts, ends, lo, hi)])]


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
    configurations: dict[tuple[int, ...], list] = {}  # per bottom cross-section
    chains = [(mu,)]
    for row in range(n):
        # Part i of the top never exceeds lam_i; in F-type rows the rows_left
        # parts of lam below it are filled by paths yet to enter, so it is at
        # least lam_{i + rows_left}.  The j-th part placed has rank total-1-j.
        # They depend on the bottom alone: in F rows its length fixes rows_left.
        total, rows_left = len(mu) + (row + 1) * left_entry, n - row - 1
        lo = lam[rows_left:rows_left + total] if left_entry else (0,) * total
        hi, lo = lam[:total][::-1], lo[::-1]
        for chain in chains:
            if chain[-1] not in configurations:
                configurations[chain[-1]] = _row_configurations(
                    multiplicities(chain[-1]), left_entry, hi, lo)
        chains = [c + (top,) for c in chains for top in configurations[c[-1]]]
    return [PathCollection(family, mu, lam, n, n_cols, c[1:])
            for c in chains if c[-1] == lam]


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
    spectral[j], left to right; empty vertices contribute 1 and are not
    walked."""
    spectral = tuple(spectral)
    if len(spectral) != pc.n_rows:
        raise ValueError(f"need one spectral value per row: {len(spectral)} "
                         f"vs {pc.n_rows}")
    q, s = params.q, params.s
    out: complex = 1.0
    for u, walk in zip(spectral, pc.walks(), strict=True):
        for _, v4 in walk:
            out *= vertex_weight_raw(*v4, q, s, u, conjugated)
    return out


def is_typical(pc: PathCollection) -> bool:
    """True iff every vertex type lies in {(0,0;0,0), (0,1;0,1), (0,1;1,0),
    (1,0;0,1)}."""
    return all(v in TYPICAL_TYPES for walk in pc.walks() for _, v in walk)


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
