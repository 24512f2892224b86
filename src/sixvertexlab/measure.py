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
is proportional to w1^{N1} ... w6^{N6} over the window [1, lam_max] x [1, k].
That weight is a product of per-gap factors, and sample_lower_rows inverts it
exactly, with no enumeration and no Markov chain.  Its oracle is the tests'
census of those weights over paths.enumerate_F_collections, which shares no
code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (constants, exponent_rows, log_ratio_s,
                          log_ratio_v)
from .boundary import f_direct_batch
from .core import (Atoms, ModelParams, Signature, admissible_ratio,
                   as_parts, q_pochhammer, strict_atoms)
from .quadrature import (COMPOSITE_MAX_NODES, SEGMENT_NODES, adaptive,
                         WindowCore, composite_nodes, conjugate_pairs,
                         cross_kernel, kernel_factor, window_integral)
from .symfunc import F_scaled_closed, StrictRow
from .weights import six_vertex_weights


class MassDeficitError(RuntimeError):
    def __init__(self, message: str, report: dict):
        super().__init__(f"{message}: {report}")
        self.report = report


def partition_Z(k: int, M: int, params: ModelParams) -> float:
    """(q;q)_k ((1 - u/s)/(1 - su))^k ((1 - quv)/(1 - uv))^{kM}."""
    q, s, u, v = params.q, params.s, params.u, params.v
    out = q_pochhammer(q, q, k) * ((1 - u / s) / (1 - s * u)) ** k
    out *= ((1 - q * u * v) / (1 - u * v)) ** (k * M)
    return out


# ---------------------------------------------------------------------------
# top-row pmf

# tolerance of the window integrals I_C (max-abs change between doublings),
# the largest part the support window may grow to and the most atoms it holds
QUAD_TOL = 1e-10
MAX_PART = 100_000
MAX_ATOMS = 2 ** 24
# a k = 3 window's core holds the least multiple of this many window steps
# of exponents that holds the window
EXPONENT_BLOCK = 10


@dataclass(frozen=True, eq=False)
class TopRowPMF:
    """Exact (truncated) law of the top cross-section.

    Its atoms are every strict signature with k parts in window, in
    colexicographic order, so iteration, serialization and inverse-CDF
    sampling are reproducible bit for bit.  They are held as one read-only
    int (n, k) array behind an Atoms view, and probs as a read-only float64
    array; part tuples are built only when read.
    """

    k: int
    M: int
    params: ModelParams
    route: str
    window: tuple[int, int]
    atoms: Atoms
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, np.int64).reshape(-1, self.k).view()
        probs = np.asarray(self.probs, np.float64).view()
        atoms.flags.writeable = probs.flags.writeable = False
        n = math.comb(max(self.window[1] - self.window[0] + 1, 0), self.k)
        if len(atoms) != n or probs.shape != (n,):
            raise ValueError(f"window {self.window} holds {n} strict atoms, "
                             f"got {len(atoms)} and {probs.shape} probs")
        object.__setattr__(self, "atoms", Atoms(atoms))
        object.__setattr__(self, "probs", probs)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.probs))

    def prob(self, sig) -> float:
        """P(mu = sig), 0.0 off the atoms.  The atoms are the whole strict
        set of window in colex order, so the atom mu sits at
        C(W, k) - 1 - sum_j C(hi - mu_j, j + 1) for W = hi - lo + 1."""
        parts, (lo, hi) = as_parts(sig), self.window
        if (len(parts) != self.k or parts[0] > hi or parts[-1] < lo
                or any(a <= b for a, b in zip(parts, parts[1:]))):
            return 0.0
        i = len(self.probs) - 1 - sum(math.comb(hi - m, j + 1)
                                      for j, m in enumerate(parts))
        return float(self.probs[i])

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count atom indices by inverse CDF from one rng.random(count),
        searched in sorted order (numpy's binary search then starts from the
        last key's bound) and scattered back.  Where noise atoms below 0 make
        the cdf go down, a uniform can have more than one crossing
        cdf[i - 1] <= u < cdf[i] and the search order can pick between them:
        mass 1.8e-14 of the total at the gue-compare point's (2, 400)."""
        cdf = np.cumsum(self.probs)
        u = rng.random(count) * cdf[-1]
        order = np.argsort(u)
        idx = np.empty(count, np.intp)
        idx[order] = np.searchsorted(cdf, u[order], side="right")
        return idx.clip(0, len(cdf) - 1)


def sample_top_row(pmf: TopRowPMF, seed: int, count: int) -> list[Signature]:
    """i.i.d. inverse-CDF draws from a pmf, as Signatures built from one
    tolist of the drawn atom rows; identical seeds give identical output."""
    rng = np.random.default_rng(seed)
    rows = np.asarray(pmf.atoms)[pmf.sample(rng, count)]
    return [Signature(parts) for parts in rows.tolist()]


def _window_step(M: int, params: ModelParams) -> int:
    """The step by which each window extension moves hi up."""
    return max(4, math.ceil(2.0 * constants(params).d * math.sqrt(M)))


def _ic_window(k: int, lo: int, hi: int, M: int, params: ModelParams,
               memo: dict) -> np.ndarray:
    """Normalized boundary integrals I_C(mu; M) at the strict mu with k parts
    in [lo, hi], packed in lexicographic order of mu - lo.  memo["nodes"]
    maps a node count to its node set, cross kernel, (k = 3) kernel factor
    and conjugate pairs, and the per-node |L_s| and |L_v|, built once;
    memo["rows"] maps it to what grew, the packed integrals so far and the
    count of exponents they cover; a law's lo never moves, so neither is
    reset.  What grew is nothing at k = 1 (an integral reads its own row), the
    rows of the exponents lo, lo + 1, ... at k = 2, and at k = 3 one
    quadrature.WindowCore over the least multiple of EXPONENT_BLOCK window
    steps of exponents from lo that holds the window (rows built once, not
    kept); a window past them takes a new core and all its integrals, so each
    depends on (M, params, lo, width) alone.  Only new largest parts get
    integrals, and the stopping rule sees only the atoms.  The conjugate-row
    check scales with the exponent size, bounded by max(l |L_s| + M |L_v|)
    over the nodes at the core's last exponent l."""
    width = hi - lo + 1
    block = EXPONENT_BLOCK * _window_step(M, params)
    nodes, grown = memo.setdefault("nodes", {}), memo.setdefault("rows", {})

    def evaluate(n: int) -> np.ndarray:
        if n not in nodes:
            z, wts = composite_nodes(params.u, M, n)
            kern = cross_kernel(z, params.q) if k > 1 else None
            three = k == 3
            nodes[n] = (z, wts, kern, kernel_factor(kern) if three else None,
                        conjugate_pairs(n) if three else None,
                        np.abs(log_ratio_s(z, params)),
                        np.abs(log_ratio_v(z, params)))
        z, wts, kern, factor, pairs, ls, lv = nodes[n]
        held, packed, done = grown.get(n, (None, np.zeros(0), 0))
        if k == 3:
            if held is None or len(held.P) < width:   # past the core's rows
                ex = lo + np.arange(-(-width // block) * block)
                held = WindowCore(exponent_rows(z, wts, ex, M, params),
                                  np.max(ex[-1] * ls + M * lv), kern, factor,
                                  pairs)
                packed, done = np.zeros(0), 0
            new = held.entries(done, width)
        else:
            rows = exponent_rows(z, wts, np.arange(lo + done, hi + 1), M,
                                 params)
            if k == 1:   # reads only the new rows, so none are held
                new = window_integral(rows, 1, 0, kern)
            else:
                held = np.concatenate(
                    [np.zeros((0, len(z))) if held is None else held, rows])
                new = window_integral(held, 2, done, kern)
        grown[n] = held, np.concatenate([packed, new]), width
        return grown[n][1]

    return adaptive(evaluate, SEGMENT_NODES, COMPOSITE_MAX_NODES, QUAD_TOL)


def _F_transfer_window(k: int, hi: int, params: ModelParams) -> np.ndarray:
    """F_mu([u]^k) for strict mu with parts in [0, hi], indexed by mu, from k
    applications of one plain StrictRow on [0, hi]; the direct route's own
    F, independent of the closed forms behind the contour route's Fhat."""
    row = StrictRow(params, params.u, False, hi)
    amp = np.ones(())
    for _ in range(k):
        amp = row.apply(amp)
    return amp


def _pmf_window(k: int, M: int, params: ModelParams, lo: int, hi: int,
                route: str, memo: dict) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of the window [lo, hi] (colex rows) and their probabilities.
    Contour: Fhat is evaluated on the gap tuples below the width W (strict
    tuples in [1, W - 1] with a 0 appended), keyed by the gaps as digits in
    base W, and gathered; so are the ranks sum_j C(mu_j - lo, k - j)."""
    atoms = strict_atoms(k, lo, hi)
    if route == "contour":
        width = hi - lo + 1
        grid = np.zeros((math.comb(width - 1, k - 1), k), atoms.dtype)
        if k > 1:
            grid[:, :-1] = strict_atoms(k - 1, 1, width - 1)
        # mu @ key: the gaps of mu as the digits of one int in base width
        key = np.diff(np.r_[0, width ** np.arange(k - 2, -1, -1), 0])
        fhat = np.empty(width ** (k - 1))
        fhat[grid @ key] = F_scaled_closed(grid, params)
        x = np.arange(hi + 1) - lo
        rank = sum((math.prod(x - t for t in range(k - j))
                    // math.factorial(k - j))[atoms[:, j]] for j in range(k))
        return atoms, (fhat[atoms @ key]
                       * _ic_window(k, lo, hi, M, params, memo)[rank])
    if route == "direct":
        idx = tuple(atoms.T)
        f = f_direct_batch(k, hi, M, params)
        F = _F_transfer_window(k, hi, params)
        return atoms, F[idx] * f[idx] / partition_Z(k, M, params)
    raise ValueError(f"unknown route {route!r}")


def top_row_pmf(k: int, M: int, params: ModelParams, tol: float = 1e-6,
                route: str = "contour") -> TopRowPMF:
    """Exact truncated law of the top cross-section (k <= 3).

    One window policy serves both routes: lo = max(1, floor(a M - 7 d
    sqrt(M))) stays put and each extension moves hi up by one step, until
    (i) the mass added by the last extension is below tol/10 and (ii) the
    top boundary layer certifies a geometric tail below tol/2 via the
    admissible ratio r < 1.  A law stopped uncertified at MAX_PART or before
    a window of more than MAX_ATOMS atoms (the first before it is built),
    or whose total mass is off 1 by more than tol (which bounds the low tail
    below lo), raises MassDeficitError; passing it exercises every formula.

    The contour route keeps each node set and its kernel, the exponent rows
    (k <= 2) or the window core (k = 3, over a multiple of EXPONENT_BLOCK
    window steps of exponents from lo) and the integrals across extensions,
    and takes only new exponents' rows and new largest parts' entries, or
    past the core's rows a new core.  Fhat and ranks come from tables per
    window.  Atoms below about 2e-13 max p are quadrature noise.
    """
    if k > 3:
        raise ValueError("top_row_pmf supports k <= 3")
    cst = constants(params)
    center, width = cst.a * M, cst.d * math.sqrt(M)
    r = admissible_ratio(params.u, params.v, params.s)
    # geometric floor: r^hi below tol regardless of the Gaussian scale
    geom_hi = int(math.ceil(math.log(tol / 10.0) / math.log(r))) + k
    lo = max(1, math.floor(center - 7.0 * width))
    hi = max(lo + k, math.ceil(center + 7.0 * width), geom_hi)
    step = _window_step(M, params)
    memo: dict = {}
    size = math.comb(hi - lo + 1, k)   # the atoms of the window to build
    built = hi < MAX_PART and size <= MAX_ATOMS
    atoms, probs = (_pmf_window(k, M, params, lo, hi, route, memo) if built
                    else (None, np.zeros(0)))
    mass = float(probs.sum())
    gained = tail_bound = math.inf
    while (built and hi < MAX_PART
           and (size := math.comb(hi + step - lo + 1, k)) <= MAX_ATOMS):
        hi += step
        del atoms, probs   # the last window's law goes before the next
        atoms, probs = _pmf_window(k, M, params, lo, hi, route, memo)
        new_mass = float(probs.sum())
        gained = abs(new_mass - mass)
        mass = new_mass
        tail_bound = abs(float(probs[atoms[:, 0] == hi].sum())) * r / (1.0 - r)
        if gained < tol / 10.0 and tail_bound < tol / 2.0:
            break
    else:
        budget = (f"MAX_PART = {MAX_PART}" if hi >= MAX_PART
                  else f"MAX_ATOMS = {MAX_ATOMS}")
        stop = ("refused the first window, before any window was built"
                if not built else f"stopped the window at part {hi}"
                if hi >= MAX_PART else "refused the next window")
        raise MassDeficitError(
            f"top-row pmf tail not certified: {budget} {stop} ({size} atoms)",
            {"mass": mass, "k": k, "M": M, "route": route,
             "window": (lo, hi), "gained": gained, "tail_bound": tail_bound,
             "tol": tol, "atoms": size, "max_atoms": MAX_ATOMS})
    if abs(mass - 1.0) > tol:
        raise MassDeficitError("top-row pmf mass is off 1 beyond tolerance",
                               {"mass": mass, "k": k, "M": M, "route": route,
                                "window": (lo, hi), "tol": tol})
    return TopRowPMF(k=k, M=M, params=params, route=route, window=(lo, hi),
                     atoms=atoms, probs=probs)


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
    def top(self) -> tuple[int, ...]:
        return self.rows[-1]


def interlace_violations(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per sample, whether the descending rows lower (n, j) and upper
    (n, j + 1) fail to be consecutive rows of a half-strict pattern: upper
    is not strict, or lower breaks upper[:, i + 1] <= lower[:, i] <=
    upper[:, i]."""
    return ((upper[:, 1:] >= upper[:, :-1]).any(axis=1)
            | ((lower > upper[:, :-1]) | (lower < upper[:, 1:])).any(axis=1))


def conditional_lower_rows_batch(lam, params: ModelParams, count: int,
                                 rng: np.random.Generator
                                 ) -> list[HalfStrictGTPattern]:
    """count exact draws of the lower rows given the top row lam (a strict
    signature with smallest part >= 1, k <= 3), from the required generator
    rng, by sample_lower_rows; one pattern object per distinct draw."""
    lam = as_parts(lam)
    if not all(a > b for a, b in zip(lam, lam[1:])) or lam[-1] < 1:
        raise ValueError(f"top row must be strict with parts >= 1, got {lam}")
    tops = np.tile(np.array(lam, dtype=np.int64), (count, 1))
    rows = sample_lower_rows(tops, params, rng) + [tops]
    keys = list(zip(*(map(tuple, row[:, ::-1].tolist()) for row in rows)))
    pats = {key: HalfStrictGTPattern(rows=key) for key in set(keys)}
    return [pats[key] for key in keys]


def conditional_lower_rows(lam, params: ModelParams,
                           rng: np.random.Generator) -> HalfStrictGTPattern:
    """One draw of conditional_lower_rows_batch."""
    return conditional_lower_rows_batch(lam, params, 1, rng)[0]


def conditional_k2_weights(params: ModelParams) -> tuple[float, float, float]:
    """Relative Gibbs weights of the middle entry c given a k = 2 top row
    (l1 < l2): (c = l1, interior, c = l2) -> (w2, w5 w6, w3 w4), after
    cancelling the c-independent factors.  They are the per-gap factors of
    every lower-row entry between its upper neighbours."""
    w1, w2, w3, w4, w5, w6 = six_vertex_weights(params)
    return w2, w5 * w6, w3 * w4


def _split_k2(r: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              weights: tuple[float, float, float]) -> np.ndarray:
    """The entry between upper neighbours lo < hi where the residual r in
    [0, Z1) falls: lo, the interior lo + 1 .. hi - 1 (uniform), then hi."""
    w_low, w_mid, _ = weights
    n_mid = np.maximum(hi - lo - 1, 0)
    total_mid = n_mid * w_mid
    frac = np.zeros_like(r)
    np.divide(r - w_low, total_mid, out=frac, where=total_mid > 0)
    mid = lo + 1 + np.floor(frac * np.maximum(n_mid, 1)).astype(np.int64)
    return np.where(r < w_low, lo, np.where(r < w_low + total_mid,
                                            np.minimum(mid, hi - 1), hi))


def sample_lower_rows(tops_desc: np.ndarray, params: ModelParams,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """Exact lower rows for the (n, k) descending strict tops, k <= 3: the
    descending rows mu^1, ..., mu^{k-1} as (n, j) arrays.  Each lower-row
    entry between upper neighbours L < R takes the factor phi = w2 at L,
    w3 w4 at R and w5 w6 in between.  One uniform per sample (one
    rng.random(n)) is inverted in lexicographic order of the increasing
    rows read downward, mu^{k-1} first: at k = 3, mu^2 = (x, y) from a
    table per distinct top weighted phi(x) phi(y) Z1(y - x), then the
    residual over phi(x) phi(y) by the k = 2 split."""
    tops = np.asarray(tops_desc, dtype=np.int64)
    n, k = tops.shape
    if k > 3:
        raise ValueError(f"sample_lower_rows supports k <= 3, got k = {k}")
    ws = conditional_k2_weights(params)

    def z1(lo, hi):  # the range of _split_k2
        return ws[0] + np.maximum(hi - lo - 1, 0) * ws[1] + ws[2]

    u = rng.random(n)
    if k == 1:
        return []
    if k == 2:
        lo, hi = tops[:, 1], tops[:, 0]
        return [_split_k2(u * z1(lo, hi), lo, hi, ws)[:, None]]
    x, y, res = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n)
    # one int per top, ordered as the tops; a ValueError if base**3 overflows
    key = np.ravel_multi_index(tops.T, (int(tops.max(initial=0)) + 1,) * 3)
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    groups = np.split(order, first[1:])
    for (c, b, a), idx in zip(tops[order[first]].tolist(), groups):
        xy = np.mgrid[a:b + 1, b:c + 1].reshape(2, -1)
        xs, ys = xy[:, xy[0] < xy[1]]
        phi = (np.where(xs == a, ws[0], np.where(xs == b, ws[2], ws[1]))
               * np.where(ys == b, ws[0], np.where(ys == c, ws[2], ws[1])))
        cdf = np.concatenate([[0.0], np.cumsum(phi * z1(xs, ys))])
        r = u[idx] * cdf[-1]
        j = np.minimum(np.searchsorted(cdf, r, side="right"), len(xs)) - 1
        x[idx], y[idx], res[idx] = xs[j], ys[j], (r - cdf[j]) / phi[j]
    return [_split_k2(res, x, y, ws)[:, None], np.stack([y, x], axis=1)]


def sample_conditional_k2(tops_desc: np.ndarray, params: ModelParams,
                          rng: np.random.Generator) -> np.ndarray:
    """The middle entries lam2 <= c <= lam1 for descending k = 2 tops."""
    return sample_lower_rows(tops_desc, params, rng)[0][:, 0]
