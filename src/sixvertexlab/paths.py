"""Explicit enumeration of up-right path collections and their weights.

Collections live on the window Z_{>=0} x {1..n}.  Two boundary families:

* F-type: N paths enter at the bottom at the columns of mu, one extra path
  enters from the left edge of every row, and all N + n paths exit the top
  at the columns of lam.
* Gc-type: N paths enter at the bottom at mu and exit the top at lam; no
  left entries.

No two paths ever share a horizontal edge (j in {0, 1}); they may share
vertical edges.  Enumeration walks row by row over cross-section signatures,
cuts a branch inside the row recursion as soon as a part can no longer reach
its rank in lam, and builds each row's vertex grid along the way, once per
distinct bottom cross-section; collections share the immutable vertex rows.

This module is deliberately independent of the transfer-matrix evaluators:
it builds explicit vertex grids and multiplies single-vertex weights, and
serves as the brute-force oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import ModelParams, as_parts, multiplicities
from .weights import vertex_weight_raw

TYPICAL_TYPES = frozenset({(0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)})


@dataclass(frozen=True)
class PathCollection:
    """A concrete configuration: dense grid of vertex types plus boundary data.

    rows[y][x] is the 4-tuple (i1, j1, i2, j2) at lattice position (x, y+1);
    columns run 0..n_cols-1 with everything beyond the window empty.
    """

    family: str                     # "F" or "Gc"
    mu: tuple[int, ...]
    lam: tuple[int, ...]
    n_rows: int
    n_cols: int
    rows: tuple[tuple[tuple[int, int, int, int], ...], ...]

    def cross_section(self, k: int) -> tuple[int, ...]:
        """Columns at which paths cross the line y = k + 1/2, sorted decreasing."""
        if not (1 <= k <= self.n_rows):
            raise ValueError(f"row index {k} outside 1..{self.n_rows}")
        parts: list[int] = []
        for x, (_i1, _j1, i2, _j2) in enumerate(self.rows[k - 1]):
            parts.extend([x] * i2)
        parts.sort(reverse=True)
        return tuple(parts)

    def vertex_types(self) -> Iterator[tuple[int, int, int, int]]:
        for row in self.rows:
            yield from row

    def validate(self) -> None:
        """Edge consistency between neighbouring vertices and the boundary."""
        if self.n_rows == 0:
            if self.mu != self.lam:
                raise AssertionError("empty window cannot reroute paths")
            return
        for y in range(self.n_rows - 1):
            for x in range(self.n_cols):
                if self.rows[y][x][2] != self.rows[y + 1][x][0]:
                    raise AssertionError(f"vertical edge mismatch at x={x}, y={y + 1}")
        left = 1 if self.family == "F" else 0
        for y in range(self.n_rows):
            h = left
            for x in range(self.n_cols):
                i1, j1, i2, j2 = self.rows[y][x]
                if j1 != h:
                    raise AssertionError(f"horizontal edge mismatch at x={x}, y={y + 1}")
                if i1 + j1 != i2 + j2:
                    raise AssertionError(f"conservation violated at x={x}, y={y + 1}")
                h = j2
            if h != 0:
                raise AssertionError(f"path leaves window in row {y + 1}")
        bottom = multiplicities(self.mu)
        for x in range(self.n_cols):
            if self.rows[0][x][0] != bottom.get(x, 0):
                raise AssertionError(f"bottom boundary mismatch at x={x}")
        if self.cross_section(self.n_rows) != tuple(sorted(self.lam, reverse=True)):
            raise AssertionError("top boundary does not match lam")

    def to_json_grid(self) -> dict:
        return {
            "family": self.family,
            "mu": list(self.mu),
            "lam": list(self.lam),
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "vertices": [[list(v) for v in row] for row in self.rows],
        }


def _row_configurations(bottom: dict[int, int], left_entry: bool, n_cols: int,
                        hi, lo):
    """All ways one row can route its paths: yields (top_parts, vertex_row).

    bottom maps column -> incoming vertical multiplicity; a left entry adds a
    horizontal path at x = 0.  Branching happens only at columns that carry a
    path; empty stretches with no horizontal path are forced.  The j-th top
    part placed, left to right, must lie in [lo[j], hi[j]], hi[j] < n_cols - 1.
    """
    occupied = sorted(bottom)
    results: list[tuple[tuple[int, ...], tuple]] = []
    verts: list[tuple[int, int, int, int]] = [None] * n_cols  # type: ignore
    top_cols: list[int] = []

    def emit():
        parts = tuple(sorted(top_cols, reverse=True))
        results.append((parts, tuple(verts)))

    def rec(x: int, h: int):
        if h == 0:
            nxt = next((c for c in occupied if c >= x), None)
            if nxt is None:
                for xx in range(x, n_cols):
                    verts[xx] = (0, 0, 0, 0)
                emit()
                return
            for xx in range(x, nxt):
                verts[xx] = (0, 0, 0, 0)
            x = nxt
        j = len(top_cols)
        if x > hi[j]:
            return  # the next part placed lies at or right of x
        i1 = bottom.get(x, 0)
        for j2 in (0, 1):
            i2 = i1 + h - j2
            if i2 < 0 or i2 and x < lo[j + i2 - 1]:
                continue
            verts[x] = (i1, h, i2, j2)
            if i2:
                top_cols.extend([x] * i2)
            rec(x + 1, j2)
            if i2:
                del top_cols[-i2:]
            verts[x] = None  # type: ignore

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
    stack_rows: list[tuple] = []
    configurations: dict[tuple[int, ...], list] = {}  # per bottom cross-section

    def rec(bottom_parts: tuple[int, ...], row: int) -> Iterator[PathCollection]:
        if row == n:
            if bottom_parts == lam:
                yield PathCollection(family=family, mu=mu, lam=lam, n_rows=n,
                                     n_cols=n_cols, rows=tuple(stack_rows))
            return
        # Part i of the top never exceeds lam_i; in F-type rows the rows_left
        # parts of lam below it are filled by paths yet to enter, so it is at
        # least lam_{i + rows_left}.  The j-th part placed has rank total-1-j.
        # They depend on the bottom alone: in F rows its length fixes rows_left.
        total, rows_left = len(bottom_parts) + left_entry, n - row - 1
        lo = lam[rows_left:rows_left + total] if left_entry else (0,) * total
        if bottom_parts not in configurations:
            configurations[bottom_parts] = _row_configurations(
                multiplicities(bottom_parts), left_entry, n_cols,
                lam[:total][::-1], lo[::-1])
        for top, verts in configurations[bottom_parts]:
            stack_rows.append(verts)
            yield from rec(top, row + 1)
            stack_rows.pop()

    return list(rec(mu, 0))


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
