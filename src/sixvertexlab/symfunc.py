"""Evaluation of the symmetric rational functions F and G^c.

Three independent routes are kept in the package: the row-by-row transfer
dynamic programming implemented here (valid for equal spectral variables),
the explicit path enumeration in paths.py, and the algebraic symmetrization
formula (distinct variables only).  F_{lam/mu}(u_1..u_n) chains one-row
transfers, each of which is the single-variable skew function obtained from
one row of vertex weights; G^c uses the conjugated table and no left
entries.  The one general-state DP is `transfer`, a signature -> amplitude
dict pushed through one row per spectral value; F_eval, Gc_eval,
boundary.f_direct and _cauchy_sum, the one certified Cauchy sum of both
identity verifiers, run on it.  The one strict-state engine is StrictRow,
which carries amplitude arrays over strict signatures: one operator per row
and position range, its event tables built once and reused by each apply.

Closed forms for geometric-progression variable sets (u, qu, ..., q^{N-1}u)
and the Cauchy identity verifiers live here as well, plus the one Fhat:
F_mu([u]^k) t^{-|mu|} for strict mu and k <= 3 in closed form, built from
the per-path event factors of one strict row (F_scaled_closed).  It stays
O(1) where raw F values would underflow at large part sizes; the contour
pmf and A_M use it, and the tests check it against F_eval.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from .core import (ModelParams, admissible_ratio, as_parts, multiplicities,
                   pair_admissible, q_pochhammer)
from .weights import vertex_weight_raw


# ---------------------------------------------------------------------------
# one-row transfer


def _row_successors(bottom: tuple[int, ...], weight, conjugated: bool, ceil,
                    floor):
    """All (top, weight) pairs reachable from bottom in one row, weight != 0,
    with top_i in [floor[i], ceil[i]], from the row's vertex weight table
    weight(i1, h, j2).  Parts are placed left to right, the j-th of rank
    len(top) - 1 - j; a branch is cut once a part lands outside its bound,
    or a moving path passes the ceiling of the next part.  A path crossing
    empty columns steps on in a loop, turning up at each before it goes on."""
    bm = multiplicities(bottom)
    occupied = sorted(bm)
    total = len(bottom) + (not conjugated)
    hi, lo = ceil[:total][::-1], floor[:total][::-1]
    turn, cross = weight(0, 1, 0), weight(0, 1, 1)
    results: list[tuple[tuple[int, ...], complex]] = []
    top_cols: list[int] = []

    def rec(x: int, h: int, acc: complex):
        if h == 0:
            i = bisect_left(occupied, x)
            if i == len(occupied):
                results.append((tuple(reversed(top_cols)), acc))
                return
            x = occupied[i]
        j = len(top_cols)
        while h and x not in bm and x <= hi[j]:
            if x >= lo[j] and turn != 0.0:
                top_cols.append(x)
                rec(x + 1, 0, acc * turn)
                top_cols.pop()
            if cross == 0.0:
                return
            acc, x = acc * cross, x + 1
        if x > hi[j]:
            return
        i1 = bm.get(x, 0)
        for j2 in (0, 1):
            i2 = i1 + h - j2
            if i2 < 0 or i2 and x < lo[j + i2 - 1]:
                continue
            wv = weight(i1, h, j2)
            if wv == 0.0:
                continue
            if i2:
                top_cols.extend([x] * i2)
            rec(x + 1, j2, acc * wv)
            if i2:
                del top_cols[-i2:]

    rec(0, 0 if conjugated else 1, 1.0)
    del rec  # it refers to itself, so it would hold out until a gc pass
    return results


def _apply_row(states: dict, spectral, q: float, s: float, conjugated: bool,
               ceil, floor, memo: dict, keep: bool) -> dict:
    """Push a vector of signature amplitudes through one row, reading each
    state's successor list from memo, keyed by the state and the floor slice
    of its rank, and storing new ones there only if keep.  States are
    visited in sorted order so the reduction order, and hence the
    floating-point result, is reproducible."""
    weight = cache(lambda i1, h, j2: vertex_weight_raw(
        i1, h, i1 + h - j2, j2, q, s, spectral, conjugated))
    out: dict[tuple[int, ...], complex] = {}
    for sig in sorted(states):
        amp = states[sig]
        if amp == 0.0:
            continue
        key = (sig, floor[:len(sig) + (not conjugated)])
        succ = memo.get(key)
        if succ is None:
            succ = _row_successors(sig, weight, conjugated, ceil, floor)
            if keep:
                memo[key] = succ
        for top, wv in succ:
            out[top] = out.get(top, 0.0) + amp * wv
    return out


def transfer(states: dict, spectral, params: ModelParams, conjugated: bool,
             envelope) -> dict:
    """The package's one general-state transfer: push a signature ->
    amplitude dict through one row per spectral value.  Plain rows (F) take
    one path entering from the left, conjugated rows (G^c) none.

    envelope = (ceil, floor), both nonincreasing, bounds the final states
    rank-wise.  Paths only move right, and each row carries at most one path
    across a column boundary, so both row kinds interlace: a row's i-th
    largest path lands at or below the (i-1)-th largest's old column.  With
    r rows left, the i-th part thus lies in [floor[i + r], ceil[i]]; each
    row builds only those states, and their values are unchanged.  A run of
    rows with equal spectral values builds each state's successor list once
    per floor slice of its rank and reuses it (the same pairs from the same
    products); no list is kept past the run.
    """
    n, (ceil, floor) = len(spectral), envelope
    floor = (*floor, *(0,) * (len(ceil) + n))
    memo: dict = {}
    for r, u_r in enumerate(spectral):
        keep = r + 1 < n and spectral[r + 1] == u_r
        states = _apply_row(states, u_r, params.q, params.s, conjugated, ceil,
                            floor[n - r - 1:], memo, keep)
        memo = memo if keep else {}
    return states


def _adjacent(mat: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A (W, W) table broadcast onto the adjacent axes (axis, axis + 1)."""
    return mat.reshape((1,) * axis + mat.shape + (1,) * (ndim - axis - 2))


class StrictRow:
    """One homogeneous row as an operator on strict-state amplitude arrays
    over the positions [0, max_part], fixed when the row is built.

    An amplitude array has one axis per path, axis j holding the j-th
    largest path; only strictly decreasing index tuples carry weight.  A
    plain row takes one path entering from the left (the result gains a
    last axis), a conjugated row takes none.

    At s^2 = 1/q this is exact for strict tops: a conjugated row blocks
    merges, so strict states stay strict, and a plain row blocks splits, so
    a non-strict state never feeds a strict one.  The row weight is then a
    product of per-path events: a path stays, or departs (or is pushed out
    by a cascade), crosses empty columns at `t` each, and lands (or cascades
    onto the next path's column).  The paths are moved one at a time, the
    smallest first, so each event only sees its two neighbours: the smaller
    one already at its new position, the larger one still at its old one.
    The O(W^2) event tables are built once, with the row; each apply then
    costs O(k W^(k+1)) flops and O(W^k) memory.
    """

    def __init__(self, params: ModelParams, spectral: complex,
                 conjugated: bool, max_part: int):
        q, s, u, c = params.q, params.s, spectral, conjugated
        self.conjugated = c
        self.stay = vertex_weight_raw(1, 0, 1, 0, q, s, u, c)
        self.land = vertex_weight_raw(0, 1, 1, 0, q, s, u, c)
        self.dep = vertex_weight_raw(1, 0, 0, 1, q, s, u, c)
        casc = vertex_weight_raw(1, 1, 1, 1, q, s, u, c)
        t = vertex_weight_raw(0, 1, 0, 1, q, s, u, c)
        pos = np.arange(max_part + 1)
        gap = pos[:, None] - pos[None, :]
        same = gap == 0
        # tri[b, a] = t^(b - a - 1): a path crossing the columns in (a, b)
        self.tri = np.where(gap > 0, t ** np.maximum(gap - 1, 0), 0.0)
        # arrive[p, b]: landing at b below the next path's old column p
        self.arrive = np.where(same, casc, np.where(gap > 0, self.land, 0.0))
        # indexed [a, c] by a path's old column a and the smaller path's new
        # column c: c == a means a cascade already pushed this path out
        self.depart = np.where(same, 1.0, self.dep)
        self.keep = np.where(same, 0.0, self.stay)
        if not c:
            # the entering path crosses columns 0 .. e-1 and lands at e
            self.cross = t ** pos
            self.enter = self.arrive * self.cross

    def apply(self, amp: np.ndarray) -> np.ndarray:
        x, c = np.asarray(amp), self.conjugated
        if not c:
            if x.ndim:
                x = x[..., None] * _adjacent(self.enter, x.ndim - 1,
                                             x.ndim + 1)
            else:
                x = x * self.land * self.cross
        n = x.ndim
        for i in range(n - 1 if c else n - 2, -1, -1):
            if i + 1 < n:
                kept = x * _adjacent(self.keep, i, n)
                moved = x * _adjacent(self.depart, i, n)
            else:
                kept, moved = self.stay * x, self.dep * x
            moved = np.moveaxis(np.tensordot(self.tri, moved, axes=([1], [i])),
                                0, i)
            moved = moved * (_adjacent(self.arrive, i - 1, n) if i
                             else self.land)
            x = kept + moved
        return x


def F_eval(lam, mu, spectral, params: ModelParams) -> complex:
    """F_{lam/mu}(u_1, ..., u_n) by chaining one-row transfers."""
    lam, mu = as_parts(lam), as_parts(mu)
    spectral = tuple(spectral)
    if len(lam) != len(mu) + len(spectral):
        raise ValueError(f"need len(lam) = len(mu) + #spectral, got {len(lam)} "
                         f"vs {len(mu)} + {len(spectral)}")
    if not spectral:
        return 1.0 if lam == mu else 0.0
    return transfer({mu: 1.0 + 0.0j}, spectral, params, False,
                    (lam, lam)).get(lam, 0.0)


def Gc_eval(lam, mu, spectral, params: ModelParams) -> complex:
    """G^c_{lam/mu}(u_1, ..., u_n) by chaining conjugated one-row transfers."""
    lam, mu = as_parts(lam), as_parts(mu)
    spectral = tuple(spectral)
    if len(lam) != len(mu):
        raise ValueError(f"length mismatch: {len(lam)} vs {len(mu)}")
    if not spectral:
        return 1.0 if lam == mu else 0.0
    return transfer({mu: 1.0 + 0.0j}, spectral, params, True,
                    (lam, lam)).get(lam, 0.0)


# ---------------------------------------------------------------------------
# algebraic routes


def F_symmetrization(mu, spectral, params: ModelParams) -> complex:
    """The symmetrization formula

        F_mu(u_1..u_N) = (1-q)^N / prod(1 - s u_i) *
            sum_{sigma in S_N} prod_{a<b} (u_a - q u_b)/(u_a - u_b)
                               prod_i ((u_i - s)/(1 - s u_i))^{mu_i}

    evaluated literally over S_N.  Requires pairwise distinct variables; the
    transfer DP realizes the continuous extension to equal variables, so
    repeated values are rejected here rather than limit-taken.
    """
    mu = as_parts(mu)
    spectral = tuple(spectral)
    n = len(spectral)
    if len(mu) != n:
        raise ValueError(f"mu must have exactly {n} parts, got {len(mu)}")
    q, s = params.q, params.s
    for i in range(n):
        for j in range(i + 1, n):
            if spectral[i] == spectral[j]:
                raise ValueError("symmetrization formula needs distinct "
                                 "spectral values; use F_eval for equal ones")
        if spectral[i] in (s, 1.0 / s):
            raise ValueError(f"spectral value {spectral[i]} hits s or 1/s")
    total: complex = 0.0
    for perm in permutations(spectral):
        term: complex = 1.0
        for a in range(n):
            for b in range(a + 1, n):
                term *= (perm[a] - q * perm[b]) / (perm[a] - perm[b])
        for i, ui in enumerate(perm):
            term *= ((ui - s) / (1.0 - s * ui)) ** mu[i]
        total += term
    pref: complex = (1.0 - q) ** n
    for ui in spectral:
        pref /= (1.0 - s * ui)
    return pref * total


def F_geometric(mu, u0, params: ModelParams) -> complex:
    """Closed form of F_mu at the geometric variable set (u, qu, .., q^{N-1}u):

        (q; q)_N prod_i [ 1/(1 - s q^{i-1} u) ((q^{i-1} u - s)/(1 - s q^{i-1} u))^{mu_i} ].
    """
    mu = as_parts(mu)
    q, s = params.q, params.s
    out: complex = q_pochhammer(q, q, len(mu))
    for i, m in enumerate(mu):
        ui = q ** i * u0
        out *= ((ui - s) / (1.0 - s * ui)) ** m / (1.0 - s * ui)
    return out


def Gc_geometric(nu, u0, n_vars: int, params: ModelParams) -> complex:
    """Closed form of G^c_nu at (u, qu, ..., q^{N-1}u) with N = n_vars.

    Zero when N < n - n_0 (too few rows to clear the nonzero parts).
    """
    nu = as_parts(nu)
    q, s = params.q, params.s
    n = len(nu)
    n0 = sum(1 for p in nu if p == 0)
    if n_vars < n - n0:
        return 0.0
    pref: complex = 1.0
    for n_k in multiplicities(p for p in nu if p > 0).values():
        pref *= q_pochhammer(1.0 / q, q, n_k) / q_pochhammer(q, q, n_k)
    num: complex = (q_pochhammer(q, q, n_vars)
                    * q_pochhammer(s * u0, q, n_vars + n0)
                    * q_pochhammer(q, q, n))
    for i in range(n_vars):
        ui = q ** i * u0
        m = nu[i] if i < n else 0
        num *= ((ui - s) / (1.0 - s * ui)) ** m / (1.0 - s * ui)
    den: complex = (q_pochhammer(q, q, n_vars - n + n0)
                    * q_pochhammer(s * u0, q, n)
                    * q_pochhammer(q, q, n0)
                    * q_pochhammer(s / u0, 1.0 / q, n - n0))
    return pref * num / den


# ---------------------------------------------------------------------------
# Cauchy identities

# the largest part the Cauchy sum may grow to while it certifies its tail,
# and the tolerance the skew Cauchy sum certifies to
CAUCHY_MAX_PART = 512
SKEW_CAUCHY_TOL = 1e-10


class CauchyTailError(RuntimeError):
    """The Cauchy sum certified no tail by CAUCHY_MAX_PART; has diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(f"{message}: {diagnostics}")
        self.diagnostics = diagnostics


def _pair_ratio(u_vec, v_vec, s: float) -> float:
    """The worst admissible_ratio of the (u, v) pairs, all admissible."""
    for ui, vj in product(u_vec, v_vec):
        if not pair_admissible(ui, vj, s):
            raise ValueError(f"pair (u={ui}, v={vj}) is not admissible")
    return max((admissible_ratio(ui, vj, s)
                for ui, vj in product(u_vec, v_vec)), default=0.0)


def _cauchy_sum(lam, nu, u_vec, v_vec, params: ModelParams, tol: float,
                rhs: complex, r: float) -> dict:
    """sum_kappa G^c_{kappa/lam}(v) F_{kappa/nu}(u) over kappa with
    N = len(lam) parts, r = _pair_ratio(u_vec, v_vec, s), as a report.

    The sum over top parts m stops at the first term whose tail bound
    term r_eff/(1 - r_eff), r_eff = r ((m + 2)/(m + 1))^p, is below
    tol |rhs| / 10 (r < 1 the worst pairwise factor ratio, m^p the growth
    of the number and size of collections).  A pass caps G^c's parts at L,
    from 16 (or the largest part of lam and nu), and builds F inside their
    rank-wise range; one that fails shrinks its last term by r_eff per part
    to the first m whose tail would pass and retries at max(m + 2, L + 4),
    up to CAUCHY_MAX_PART, past which it raises CauchyTailError.  The bound
    is rounded up by 2^-40 of itself, past the n eps <= 2^-44 rounding of a
    sum of n <= CAUCHY_MAX_PART terms that it equals at N = K = 1.  Parts
    <= L keep their values under any larger cap (transfer's envelope) and
    are summed in sorted order, so every cap past the certified part gives
    the same bits.  caps lists (L, G^c states, F states) per pass.

    p counts the parts that grow with m: N - 1 of kappa, N(N - 1)/2 in F's
    chain and sum_{j<K} min(j, N) <= N(N - 1)/2 + N max(K - N, 0) in G^c's.
    It bounds the skew terms too: a part of a chain from lam (nu) to kappa
    is pinned between two parts of lam (nu) or free below one that grows
    with m, and no row has more free parts than from 0^N (()).
    """
    N, K = len(lam), len(v_vec)
    p_deg = (N - 1) + N * (N - 1) + N * max(K - N, 0)
    goal = tol * max(abs(rhs), 1e-300) / 10.0

    def tail(m: int, term: float) -> tuple[float, float]:
        r_eff = r * ((m + 2) / (m + 1)) ** p_deg
        return r_eff, (term * r_eff / (1.0 - r_eff) * (1.0 + 2.0 ** -40)
                       if r_eff < 1.0 else np.inf)

    L, caps = max(16, *lam, *nu), []
    while True:
        g_table = transfer({lam: 1.0 + 0.0j}, v_vec, params, True,
                           ((L,) * N, ()))
        f_table = transfer({nu: 1.0 + 0.0j}, u_vec, params, False,
                           (tuple(map(max, *g_table, (0,) * N)),
                            tuple(map(min, *g_table, (L,) * N))))
        caps.append((L, len(g_table), len(f_table)))
        by_top: dict[int, complex] = {}
        for sig in sorted(f_table.keys() & g_table.keys()):
            by_top[sig[0]] = (by_top.get(sig[0], 0.0)
                              + f_table[sig] * g_table[sig])
        # sum upward in part size until the remaining tail is certified small
        lhs: complex = 0.0
        for trunc_L in sorted(by_top):
            lhs += by_top[trunc_L]
            tail_bound = tail(trunc_L, abs(by_top[trunc_L]))[1]
            if tail_bound < goal:
                break
        if tail_bound < goal:
            break
        m, term = trunc_L, abs(by_top[trunc_L])
        if L >= CAUCHY_MAX_PART:
            raise CauchyTailError("Cauchy sum certified no tail bound", dict(
                N=N, K=K, r=r, caps=caps, last_term=term, tol=tol))
        r_eff, bound = tail(m, term)
        while not bound < goal and m < CAUCHY_MAX_PART:
            m, term = m + 1, term * r_eff
            r_eff, bound = tail(m, term)
        L = min(max(m + 2, L + 4), CAUCHY_MAX_PART)

    return {"lhs": complex(lhs).real if abs(complex(lhs).imag) < 1e-12 else lhs,
            "rhs": complex(rhs).real if abs(complex(rhs).imag) < 1e-12 else rhs,
            "rel_error": abs(lhs - rhs) / max(abs(rhs), 1e-300),
            "truncation_L": trunc_L,
            "tail_bound": tail_bound,
            "term_ratio": r,
            "caps": caps}


def verify_cauchy(N: int, K: int, u_vec, v_vec, params: ModelParams,
                  tol: float) -> dict:
    """Verify sum_{nu in Sign^+_N} F_nu(u) G^c_nu(v) against the product form

        (q; q)_N prod_i [ 1/(1 - s u_i) prod_j (1 - q u_i v_j)/(1 - u_i v_j) ]

    by _cauchy_sum at lam = 0^N, nu = () (its report, tail rule, caps)."""
    u_vec, v_vec = tuple(u_vec), tuple(v_vec)
    if len(u_vec) != N or len(v_vec) != K:
        raise ValueError("u_vec and v_vec must have lengths N and K")
    s, q = params.s, params.q
    r = _pair_ratio(u_vec, v_vec, s)
    rhs: complex = q_pochhammer(q, q, N)
    for ui in u_vec:
        rhs /= (1.0 - s * ui)
        for vj in v_vec:
            rhs *= (1.0 - q * ui * vj) / (1.0 - ui * vj)
    return _cauchy_sum((0,) * N, (), u_vec, v_vec, params, tol, rhs, r)


def verify_skew_cauchy(lam, nu, u_vec, v_vec, params: ModelParams) -> dict:
    """Verify the skew Cauchy identity

        sum_kappa G^c_{kappa/lam}(v) F_{kappa/nu}(u)
          = prod_{i,j} (1 - q u_i v_j)/(1 - u_i v_j)
            sum_mu F_{lam/mu}(u) G^c_{nu/mu}(v)

    with the left side by _cauchy_sum certified to SKEW_CAUCHY_TOL (its
    report, tail rule and cap schedule) and the right side a finite sum."""
    lam, nu = as_parts(lam), as_parts(nu)
    u_vec, v_vec = tuple(u_vec), tuple(v_vec)
    if len(lam) != len(nu) + len(u_vec):
        raise ValueError("need len(lam) = len(nu) + len(u_vec)")
    r = _pair_ratio(u_vec, v_vec, params.s)
    cross = math.prod((1.0 - params.q * ui * vj) / (1.0 - ui * vj)
                      for ui, vj in product(u_vec, v_vec))
    # mu runs over the nonnegative signatures with len(mu) = len(nu) and
    # mu_i <= nu_i
    mu_cap = max([*lam, *nu, 0])
    rhs_sum: complex = 0.0
    for mu_sig in combinations_with_replacement(range(mu_cap, -1, -1), len(nu)):
        if any(m > n for m, n in zip(mu_sig, nu)):
            continue
        gval = Gc_eval(nu, mu_sig, v_vec, params)
        if gval == 0.0:
            continue
        rhs_sum += F_eval(lam, mu_sig, u_vec, params) * gval
    return _cauchy_sum(lam, nu, u_vec, v_vec, params, SKEW_CAUCHY_TOL,
                       cross * rhs_sum, r)


# ---------------------------------------------------------------------------
# Fhat: the scaled strict F for k <= 3 (homogeneous spectral u, s = q^{-1/2})


def step_ratio(params: ModelParams) -> float:
    """t = (u - s)/(1 - s u), the weight of one horizontal step; negative,
    with |t| < 1 in the ferroelectric chain."""
    return (params.u - params.s) / (1.0 - params.s * params.u)


def _scaled_row_factors(params: ModelParams) -> tuple[float, float, float, float]:
    """Per-path factors of the strict one-row F transfer after dividing out
    t per horizontal step: (stay, land, cascade, depart) for the vertex
    types (1,0;1,0), (0,1;1,0), (1,1;1,1), (1,0;0,1)."""
    q, s, u = params.q, params.s, params.u
    stay = (1.0 - s * q * u) / (1.0 - s * u)
    land = (1.0 - q) / (1.0 - s * u)
    casc = (u - s * q) / (u - s)
    dep = (1.0 - 1.0 / q) * u / (u - s)
    return stay, land, casc, dep


def F_scaled_closed(mu, params: ModelParams) -> np.ndarray:
    """Fhat(mu) = F_mu([u]^k) t^{-|mu|} (t = step_ratio) for k <= 3,
    vectorized over an int array mu (..., k) of strict decreasing parts
    >= 0.  It depends only on the gaps g_i = mu_i - mu_{i+1}.

    At s^2 = 1/q one strict row of the F transfer, divided by t per
    horizontal step, is a product of per-path event factors S, L, C, D
    (_scaled_row_factors): a path that stays brings S; a path that moves
    brings C if it lands on the column the next larger path left, else L,
    and then D unless the next smaller path lands on the column it left;
    the path entering from the left only lands.  So one row gives L and two
    give pair(g) = L^2 (C + S + (g - 1) L D) = alpha + beta g,
    alpha = L^2 (C + S - L D), beta = L^3 D.  The third row sums pair(x + j)
    over the middle states (mu_2 + x, mu_2 - j), 0 <= x <= g1, 0 <= j <= g2:
    the top path brings a(x) = S at x = g1, else L D; the new path brings
    b(j) = C at j = g2, else L D; the middle path stays at j = 0 (S L for it
    and the new path), cascades onto the vacated mu_2 at x = 0 (L C for it
    and the top path), else lands (L).  pair is linear, so with
    A_r = sum_{x=1}^{g1} x^r a(x), B_r = sum_{j=1}^{g2} j^r b(j) and
    P_X = alpha X_0 + beta X_1,
    F = L (S P_A + C P_B + alpha A_0 B_0 + beta (A_1 B_0 + A_0 B_1))
      = L ((S + B_0) P_A + C P_B + beta A_0 B_1).
    """
    mu = np.asarray(mu)
    k = mu.shape[-1]
    if not 1 <= k <= 3:
        raise ValueError(f"closed form covers 1 <= k <= 3, got k = {k}")
    gaps = mu[..., :-1] - mu[..., 1:]
    if np.any(gaps < 1) or np.any(mu[..., -1] < 0):
        raise ValueError("closed form requires strict nonnegative signatures")
    stay, land, casc, dep = _scaled_row_factors(params)
    if k == 1:
        return np.full(mu.shape[:-1], land)
    if k == 2:
        return land * land * (casc + stay + (gaps[..., 0] - 1) * land * dep)
    g1, g2 = gaps[..., 0], gaps[..., 1]
    ld = land * dep
    alpha, beta = land * land * (casc + stay - ld), land * land * ld
    a0, a1 = stay + (g1 - 1) * ld, g1 * stay + ld * (g1 * (g1 - 1) // 2)
    b0, b1 = casc + (g2 - 1) * ld, g2 * casc + ld * (g2 * (g2 - 1) // 2)
    pa, pb = alpha * a0 + beta * a1, alpha * b0 + beta * b1
    return land * ((stay + b0) * pa + casc * pb + beta * a0 * b1)
