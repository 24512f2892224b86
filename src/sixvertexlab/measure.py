"""The probability measure on path collections with k rows and M columns.

The top cross-section law is

    P(lambda^k = mu) = F_mu([u]^k) f(mu; [v]^M, rho) / Z,
    Z = (q;q)_k ((1 - u/s)/(1 - su))^k ((1 - quv)/(1 - uv))^{kM},

supported on signatures with distinct parts >= 1.  Two routes build the pmf:

* "contour": P(mu) = Fhat(mu) * I_C(mu; M), where Fhat is the closed form
  of the scaled strict row transfer (symfunc.F_scaled_closed, a function of
  the gaps of mu) and I_C the normalized composite-contour integral, taken
  for the whole exponent window at once by the one contour-quadrature engine
  (quadrature.py) and kept across window extensions.  Both factors are O(1)
  for mu near a M, so this route scales to large M.
* "direct": literal assembly F * f / Z from the boundary nu-sum; exact and
  cheap for small M, used as the cross-check oracle.  Both F (k plain rows)
  and f (M conjugated rows) run on the strict-state array operator
  symfunc.StrictRow.  Dropping non-strict states is exact at s^2 = 1/q:
  conjugated rows block merges, so the f sum started on strict nu never
  leaves strict states, and plain rows block splits, so a non-strict state
  never feeds the strict tops that carry the law.

Lower rows given the top row follow the six-vertex Gibbs property: the
conditional law on half-strict Gelfand-Tsetlin patterns with fixed top row
is proportional to w1^{N1} ... w6^{N6}, the N_i counting vertex types over
the window [1, lam_max] x [1, k].  Conditional sampling is exact enumeration
over GT_lambda (no Markov chain mixing questions at desk scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .asymptotics import constants, exponent_rows
from .boundary import f_direct_batch
from .core import ModelParams, Signature, as_parts, q_pochhammer
from .paths import PathCollection
from .quadrature import (COMPOSITE_MAX_NODES, SEGMENT_NODES, adaptive,
                         composite_nodes, tensor_integral)
from .symfunc import F_scaled_closed, StrictRow
from .weights import six_vertex_weights


class MassDeficitError(RuntimeError):
    def __init__(self, message: str, report: dict):
        super().__init__(f"{message}: {report}")
        self.report = report


class EnumerationCapError(RuntimeError):
    pass


def partition_Z(k: int, M: int, params: ModelParams) -> float:
    """(q;q)_k ((1 - u/s)/(1 - su))^k ((1 - quv)/(1 - uv))^{kM}."""
    q, s, u, v = params.q, params.s, params.u, params.v
    out = q_pochhammer(q, q, k) * ((1 - u / s) / (1 - s * u)) ** k
    out *= ((1 - q * u * v) / (1 - u * v)) ** (k * M)
    return out


# ---------------------------------------------------------------------------
# top-row pmf

# tolerance of the window integrals I_C (max-abs change between doublings),
# and the largest part the support window may grow to
QUAD_TOL = 1e-10
MAX_PART = 100_000


@dataclass(frozen=True)
class TopRowPMF:
    """Exact (truncated) law of the top cross-section.

    Atoms are canonical part tuples in colexicographic order so iteration,
    serialization and inverse-CDF sampling are reproducible bit for bit.
    """

    k: int
    M: int
    params: ModelParams
    route: str
    window: tuple[int, int]
    atoms: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    @property
    def total_mass(self) -> float:
        return float(np.sum(np.asarray(self.probs)))

    @cached_property
    def _atom_index(self) -> dict[tuple[int, ...], int]:
        return dict(zip(self.atoms, range(len(self.atoms))))

    def prob(self, sig) -> float:
        i = self._atom_index.get(as_parts(sig))
        return 0.0 if i is None else self.probs[i]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count atom indices drawn by inverse CDF (deterministic per rng)."""
        cdf = np.cumsum(np.asarray(self.probs))
        u = rng.random(count) * cdf[-1]
        return np.searchsorted(cdf, u, side="right").clip(0, len(cdf) - 1)


def sample_top_row(pmf: TopRowPMF, seed: int, count: int) -> list[Signature]:
    """i.i.d. inverse-CDF draws from a pmf; identical seeds give identical
    output."""
    rng = np.random.default_rng(seed)
    idx = pmf.sample(rng, count)
    return [Signature(pmf.atoms[i]) for i in idx]


def _strict_atoms(k: int, lo: int, hi: int) -> np.ndarray:
    """Every strict signature mu_1 > ... > mu_k with parts in [lo, hi], as
    the rows of an int (n, k) array in colexicographic order."""
    grid = np.ogrid[(slice(hi - lo + 1),) * k]
    increasing = np.ones((hi - lo + 1,) * k, dtype=bool)
    for low, high in zip(grid, grid[1:]):
        increasing &= low < high
    # row-major order of increasing tuples is colex order of their reversals
    return lo + np.argwhere(increasing)[:, ::-1]


def _ic_window(k: int, lo: int, hi: int, M: int, params: ModelParams,
               memo: dict[int, np.ndarray]) -> np.ndarray:
    """Normalized boundary integrals I_C(mu; M) on the exponent box, indexed
    by (mu_1 - lo, ..., mu_k - lo).  memo maps a node count to the box last
    taken at it for this lo; only slices with a new largest part mu_1 are
    integrated, so nonstrict entries they skip stay 0 (and are never read)."""
    m_vals = np.arange(lo, hi + 1)

    def evaluate(n: int) -> np.ndarray:
        z, wts = composite_nodes(params.u, M, n)
        rows = exponent_rows(z, wts, m_vals, M, params)
        old = memo.get(n, np.zeros((0,) * k))
        done = old.shape[0]
        out = np.zeros((len(m_vals),) * k)
        out[(slice(done),) * k] = old
        out[done:] = tensor_integral([rows[done:]] + [rows] * (k - 1), z,
                                     params.q).real
        memo[n] = out
        return out

    return adaptive(evaluate, SEGMENT_NODES, COMPOSITE_MAX_NODES, QUAD_TOL)


def _F_transfer_window(k: int, hi: int, params: ModelParams) -> np.ndarray:
    """F_mu([u]^k) for strict mu with parts in [0, hi], indexed by mu, from k
    plain strict rows; the direct route's own F, independent of the closed
    forms behind the contour route's Fhat."""
    row = StrictRow(params, params.u)
    amp = np.ones(())
    for _ in range(k):
        amp = row.apply(amp, hi)
    return amp


def _pmf_window(k: int, M: int, params: ModelParams, lo: int, hi: int,
                route: str, memo: dict[int, np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of the window [lo, hi] (colex rows) and their probabilities."""
    atoms = _strict_atoms(k, lo, hi)
    if route == "contour":
        ic = _ic_window(k, lo, hi, M, params, memo)
        return atoms, F_scaled_closed(atoms, params) * ic[tuple((atoms - lo).T)]
    if route == "direct":
        f_tab = f_direct_batch(k, hi, params.v, M, params)
        F_tab = _F_transfer_window(k, hi, params)
        z = partition_Z(k, M, params)
        f_vals = np.array([f_tab[mu] for mu in map(tuple, atoms.tolist())])
        return atoms, F_tab[tuple(atoms.T)] * f_vals / z
    raise ValueError(f"unknown route {route!r}")


def admissible_ratio(params: ModelParams) -> float:
    """r = |(u-s)(v-s)/((1-su)(1-sv))| < 1; one extra column of support
    multiplies a pmf term by about r."""
    s = params.s
    return abs((params.u - s) / (1 - s * params.u)
               * (params.v - s) / (1 - s * params.v))


def top_row_pmf(k: int, M: int, params: ModelParams, tol: float = 1e-6,
                route: str = "contour") -> TopRowPMF:
    """Exact truncated law of the top cross-section (k <= 3).

    The support window around a M grows until (i) the mass added by the last
    extension is below tol/10 and (ii) the top boundary layer certifies a
    geometric tail below tol/2 via the admissible ratio r < 1.  A total mass
    off 1 by more than tol raises MassDeficitError; passing this check
    exercises every formula in the package at once.

    The contour route keeps its window integrals across extensions and, while
    lo stays put, integrates only the slices of new largest parts.  Its
    atoms below about 2e-13 max p are quadrature noise and can be negative.
    """
    if k > 3:
        raise ValueError("top_row_pmf supports k <= 3")
    cst = constants(params)
    center, width = cst.a * M, cst.d * math.sqrt(M)
    r = admissible_ratio(params)
    # geometric floor: r^hi below tol regardless of the Gaussian scale
    geom_hi = int(math.ceil(math.log(tol / 10.0) / math.log(r))) + k
    lo = max(1, math.floor(center - 7.0 * width)) if route == "contour" else 1
    hi = max(lo + k, math.ceil(center + 7.0 * width), geom_hi)
    step = max(4, math.ceil(2.0 * width))
    memo: dict[int, np.ndarray] = {}
    atoms, probs = _pmf_window(k, M, params, lo, hi, route, memo)
    mass = float(probs.sum())
    while hi < MAX_PART:
        new_lo = max(1, lo - step) if route == "contour" else lo
        if new_lo != lo:
            memo.clear()
        lo, hi = new_lo, hi + step
        atoms, probs = _pmf_window(k, M, params, lo, hi, route, memo)
        new_mass = float(probs.sum())
        gained = abs(new_mass - mass)
        mass = new_mass
        tail_bound = abs(float(probs[atoms[:, 0] == hi].sum())) * r / (1.0 - r)
        if gained < tol / 10.0 and tail_bound < tol / 2.0:
            break
    if abs(mass - 1.0) > tol:
        raise MassDeficitError("top-row pmf mass is off 1 beyond tolerance",
                               {"mass": mass, "k": k, "M": M, "route": route,
                                "window": (lo, hi), "tol": tol})
    return TopRowPMF(k=k, M=M, params=params, route=route, window=(lo, hi),
                     atoms=tuple(map(tuple, atoms.tolist())),
                     probs=tuple(probs.tolist()))


# ---------------------------------------------------------------------------
# half-strict Gelfand-Tsetlin patterns and the Gibbs conditional


@dataclass(frozen=True)
class HalfStrictGTPattern:
    """Rows mu^1, ..., mu^k; row j strictly increasing of length j, and
    consecutive rows interlace: mu^{j+1}_1 <= mu^j_1 <= mu^{j+1}_2 <= ..."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for j, row in enumerate(self.rows, start=1):
            if len(row) != j:
                raise ValueError(f"row {j} must have {j} entries, got {row}")
            if any(a >= b2 for a, b2 in zip(row, row[1:])):
                raise ValueError(f"row {j} is not strictly increasing: {row}")
        for lower, upper in zip(self.rows, self.rows[1:]):
            for i, x in enumerate(lower):
                if not (upper[i] <= x <= upper[i + 1]):
                    raise ValueError(
                        f"rows {lower} and {upper} do not interlace")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def top(self) -> tuple[int, ...]:
        return self.rows[-1]


@dataclass(frozen=True)
class GibbsVertexCounts:
    """Vertex-type census (N1..N6) over the window [1, lam_max] x [1, k]."""

    n1: int
    n2: int
    n3: int
    n4: int
    n5: int
    n6: int
    window_cols: int
    window_rows: int

    def __post_init__(self):
        total = self.n1 + self.n2 + self.n3 + self.n4 + self.n5 + self.n6
        if total != self.window_cols * self.window_rows:
            raise ValueError(f"census {total} != window area "
                             f"{self.window_cols * self.window_rows}")

    def as_tuple(self) -> tuple[int, ...]:
        return (self.n1, self.n2, self.n3, self.n4, self.n5, self.n6)


def enumerate_gt_patterns(top_increasing, cap: int = 2_000_000) -> list[HalfStrictGTPattern]:
    """All half-strict patterns with the given (strictly increasing) top row."""
    top = tuple(top_increasing)
    if any(a >= b for a, b in zip(top, top[1:])):
        raise ValueError(f"top row must be strictly increasing, got {top}")

    def shrink(upper: tuple[int, ...]):
        j = len(upper) - 1
        if j == 0:
            yield ()
            return

        def rec(i: int, prev: int, acc: list[int]):
            if i == j:
                yield tuple(acc)
                return
            lo_i = max(upper[i], prev + 1)
            for x in range(lo_i, upper[i + 1] + 1):
                acc.append(x)
                yield from rec(i + 1, x, acc)
                acc.pop()

        yield from rec(0, -10 ** 9, [])

    full: list[HalfStrictGTPattern] = []

    def rec_pattern(rows_desc: list[tuple[int, ...]]):
        if len(full) > cap:
            raise EnumerationCapError(
                f"|GT_lambda| exceeds enumeration cap {cap} for top {top}")
        bottom = rows_desc[-1]
        if len(bottom) == 1:
            full.append(HalfStrictGTPattern(rows=tuple(reversed(rows_desc))))
            return
        for nxt in shrink(bottom):
            rows_desc.append(nxt)
            rec_pattern(rows_desc)
            rows_desc.pop()

    rec_pattern([top])
    return full


def _pattern_row_grid(bottom: tuple[int, ...], top: tuple[int, ...],
                      n_cols: int) -> list[tuple[int, int, int, int]]:
    """Reconstruct one row's vertex types from consecutive sections
    (increasing convention; one path enters from the left)."""
    bset, tset = set(bottom), set(top)
    h = 1
    row = []
    for x in range(n_cols):
        i1 = 1 if x in bset else 0
        i2 = 1 if x in tset else 0
        j2 = i1 + h - i2
        assert j2 in (0, 1), "sections do not interlace"
        row.append((i1, h, i2, j2))
        h = j2
    assert h == 0
    return row


def pattern_to_collection(pattern: HalfStrictGTPattern) -> PathCollection:
    """The configuration corresponding to a pattern (rows are cross-sections)."""
    n_cols = pattern.top[-1] + 2
    rows = []
    prev: tuple[int, ...] = ()
    for row_sec in pattern.rows:
        rows.append(tuple(_pattern_row_grid(prev, row_sec, n_cols)))
        prev = row_sec
    lam_desc = tuple(sorted(pattern.top, reverse=True))
    return PathCollection(family="F", mu=(), lam=lam_desc, n_rows=pattern.k,
                          n_cols=n_cols, rows=tuple(rows))


_TYPE_INDEX = {(0, 0, 0, 0): 0, (1, 1, 1, 1): 1, (1, 0, 1, 0): 2,
               (0, 1, 0, 1): 3, (1, 0, 0, 1): 4, (0, 1, 1, 0): 5}


def gibbs_vertex_counts(pattern: HalfStrictGTPattern) -> GibbsVertexCounts:
    """Census over the stated window [1, lam_max] x [1, k] (column 0 excluded)."""
    lam_max = pattern.top[-1]
    counts = [0] * 6
    prev: tuple[int, ...] = ()
    for row_sec in pattern.rows:
        grid = _pattern_row_grid(prev, row_sec, lam_max + 1)
        for x in range(1, lam_max + 1):
            counts[_TYPE_INDEX[grid[x]]] += 1
        prev = row_sec
    return GibbsVertexCounts(*counts, window_cols=lam_max, window_rows=pattern.k)


def gibbs_pattern_weight(pattern: HalfStrictGTPattern,
                         params: ModelParams) -> float:
    """w1^{N1} ... w6^{N6} over the window."""
    ws = six_vertex_weights(params)
    counts = gibbs_vertex_counts(pattern)
    out = 1.0
    for w_i, n_i in zip(ws, counts.as_tuple()):
        out *= w_i ** n_i
    return out


def conditional_lower_rows_batch(lam, params: ModelParams, count: int,
                                 seed: int | None = None,
                                 rng: np.random.Generator | None = None,
                                 cap: int = 500_000) -> list[HalfStrictGTPattern]:
    """count exact draws of the lower rows given the top row lam (a strict
    signature with smallest part >= 1): enumerate GT_lambda once, weight by
    the six-vertex census, and inverse-CDF sample."""
    lam = as_parts(lam)
    if not all(a > b for a, b in zip(lam, lam[1:])) or lam[-1] < 1:
        raise ValueError(f"top row must be strict with parts >= 1, got {lam}")
    top = tuple(sorted(lam))
    if rng is None:
        rng = np.random.default_rng(seed)
    patterns = enumerate_gt_patterns(top, cap=cap)
    weights = np.array([gibbs_pattern_weight(pat, params) for pat in patterns])
    cdf = np.cumsum(weights)
    idx = np.searchsorted(cdf, rng.random(count) * cdf[-1], side="right")
    idx = np.minimum(idx, len(patterns) - 1)
    return [patterns[i] for i in idx]


def conditional_lower_rows(lam, params: ModelParams, seed: int | None = None,
                           rng: np.random.Generator | None = None,
                           cap: int = 500_000) -> HalfStrictGTPattern:
    """One exact draw of the lower rows given the top row lam."""
    return conditional_lower_rows_batch(lam, params, 1, seed=seed, rng=rng,
                                        cap=cap)[0]


def conditional_k2_weights(params: ModelParams) -> tuple[float, float, float]:
    """Relative Gibbs weights of the middle entry c given a k = 2 top row
    (l1 < l2): (c = l1, interior, c = l2) -> (w2, w5 w6, w3 w4), after
    cancelling the c-independent factors."""
    w1, w2, w3, w4, w5, w6 = six_vertex_weights(params)
    return w2, w5 * w6, w3 * w4


def sample_conditional_k2(tops_desc: np.ndarray, params: ModelParams,
                          rng: np.random.Generator) -> np.ndarray:
    """Vectorized middle-row draws for k = 2 tops (descending pairs lam1 > lam2);
    returns the sampled c with lam2 <= c <= lam1."""
    lam1 = tops_desc[:, 0].astype(np.int64)
    lam2 = tops_desc[:, 1].astype(np.int64)
    w_low, w_mid, w_high = conditional_k2_weights(params)
    gap = lam1 - lam2
    total_low = np.full(len(lam1), w_low)
    total_mid = np.maximum(gap - 1, 0) * w_mid
    total_high = w_high * np.ones(len(lam1))
    total = total_low + total_mid + total_high
    r = rng.random(len(lam1)) * total
    c = np.where(r < total_low, lam2, 0)
    in_mid = (r >= total_low) & (r < total_low + total_mid)
    # uniform over the interior lam2+1 .. lam1-1
    frac = np.zeros_like(r)
    np.divide(r - total_low, np.maximum(total_mid, 1e-300), out=frac,
              where=total_mid > 0)
    mid_val = lam2 + 1 + np.floor(frac * np.maximum(gap - 1, 1)).astype(np.int64)
    mid_val = np.minimum(mid_val, lam1 - 1)
    c = np.where(in_mid, mid_val, c)
    c = np.where(r >= total_low + total_mid, lam1, c)
    return c
