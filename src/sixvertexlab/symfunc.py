"""Evaluation of the symmetric rational functions F and G^c.

Three independent routes are kept in the package: the row-by-row transfer
dynamic programming implemented here (valid for equal spectral variables),
the explicit path enumeration in paths.py, and the algebraic symmetrization
formula (distinct variables only).  F_{lam/mu}(u_1..u_n) chains one-row
transfers, each of which is the single-variable skew function obtained from
one row of vertex weights; G^c uses the conjugated table and no left
entries.

Closed forms for geometric-progression variable sets (u, qu, ..., q^{N-1}u)
and the Cauchy identity verifier live here as well, plus a scaled variant of
the F transfer (weights divided by ((u-s)/(1-su)) per horizontal step) that
stays O(1) where raw F values would underflow at large part sizes, and its
closed form for k <= 3, which the contour pmf and A_M use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import ModelParams, as_parts, pair_admissible, q_pochhammer
from .weights import vertex_weight_raw


# ---------------------------------------------------------------------------
# one-row transfer


def _mults(parts: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


def row_weight(top, bottom, spectral, params: ModelParams,
               conjugated: bool = False, left_entry: bool = True) -> complex:
    """Single-variable skew function from one row of vertex weights.

    The horizontal occupancies are forced by the (bottom, top) pair through
    prefix counts; the value is 0 unless they all lie in {0, 1}.
    """
    top, bottom = as_parts(top), as_parts(bottom)
    expected = len(bottom) + (1 if left_entry else 0)
    if len(top) != expected:
        return 0.0
    q, s = params.q, params.s
    bm, tm = _mults(bottom), _mults(top)
    hi = max([*top, *bottom, -1])
    h = 1 if left_entry else 0
    out: complex = 1.0
    for x in range(hi + 1):
        i1 = bm.get(x, 0)
        i2 = tm.get(x, 0)
        j2 = i1 + h - i2
        if j2 not in (0, 1):
            return 0.0
        out *= vertex_weight_raw(i1, h, i2, j2, q, s, spectral, conjugated)
        if out == 0.0:
            return 0.0
        h = j2
    return out if h == 0 else 0.0


def _row_successors(bottom: tuple[int, ...], spectral, q: float, s: float,
                    conjugated: bool, left_entry: bool, max_col: int):
    """All (top, weight) pairs reachable from bottom in one row, weight != 0."""
    bm = _mults(bottom)
    occupied = sorted(bm)
    results: list[tuple[tuple[int, ...], complex]] = []
    top_cols: list[int] = []

    def rec(x: int, h: int, acc: complex):
        if h == 0:
            nxt = next((c for c in occupied if c >= x), None)
            if nxt is None:
                results.append((tuple(sorted(top_cols, reverse=True)), acc))
                return
            x = nxt
        if x > max_col:
            return
        i1 = bm.get(x, 0)
        for j2 in (0, 1):
            i2 = i1 + h - j2
            if i2 < 0:
                continue
            wv = vertex_weight_raw(i1, h, i2, j2, q, s, spectral, conjugated)
            if wv == 0.0:
                continue
            if i2:
                top_cols.extend([x] * i2)
            rec(x + 1, j2, acc * wv)
            if i2:
                del top_cols[-i2:]

    rec(0, 1 if left_entry else 0, 1.0)
    return results


@dataclass(frozen=True)
class TransferRow:
    """One row of the lattice as an operator on signature-indexed vectors."""

    params: ModelParams
    spectral: complex
    conjugated: bool = False
    left_entry: bool = True

    def weight(self, bottom, top) -> complex:
        return row_weight(top, bottom, self.spectral, self.params,
                          self.conjugated, self.left_entry)

    def apply(self, states: dict[tuple[int, ...], complex],
              max_col: int) -> dict[tuple[int, ...], complex]:
        """Push a vector of signature amplitudes through one row.

        States are visited in sorted order so the reduction order, and hence
        the floating-point result, is reproducible.
        """
        out: dict[tuple[int, ...], complex] = {}
        for sig in sorted(states):
            amp = states[sig]
            if amp == 0.0:
                continue
            for top, wv in _row_successors(sig, self.spectral, self.params.q,
                                           self.params.s, self.conjugated,
                                           self.left_entry, max_col):
                out[top] = out.get(top, 0.0) + amp * wv
        return out


def _adjacent(mat: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A (W, W) table broadcast onto the adjacent axes (axis, axis + 1)."""
    return mat.reshape((1,) * axis + mat.shape + (1,) * (ndim - axis - 2))


@dataclass(frozen=True)
class StrictRow:
    """One homogeneous row as an operator on strict-state amplitude arrays.

    An amplitude array over positions [0, max_part] has one axis per path,
    axis j holding the j-th largest path; only strictly decreasing index
    tuples carry weight.  A plain row takes one path entering from the left
    (the result gains a last axis), a conjugated row takes none.

    At s^2 = 1/q this is exact for strict tops: a conjugated row blocks
    merges, so strict states stay strict, and a plain row blocks splits, so
    a non-strict state never feeds a strict one.  The row weight is then a
    product of per-path events: a path stays, or departs (or is pushed out
    by a cascade), crosses empty columns at `t` each, and lands (or cascades
    onto the next path's column).  The paths are moved one at a time, the
    smallest first, so each event only sees its two neighbours: the smaller
    one already at its new position, the larger one still at its old one.
    One row costs O(k W^(k+1)) flops and O(W^k) memory.
    """

    params: ModelParams
    spectral: complex
    conjugated: bool = False

    def apply(self, amp: np.ndarray, max_part: int) -> np.ndarray:
        q, s, u, c = (self.params.q, self.params.s, self.spectral,
                      self.conjugated)
        stay = vertex_weight_raw(1, 0, 1, 0, q, s, u, c)
        land = vertex_weight_raw(0, 1, 1, 0, q, s, u, c)
        dep = vertex_weight_raw(1, 0, 0, 1, q, s, u, c)
        casc = vertex_weight_raw(1, 1, 1, 1, q, s, u, c)
        t = vertex_weight_raw(0, 1, 0, 1, q, s, u, c)
        pos = np.arange(max_part + 1)
        gap = pos[:, None] - pos[None, :]
        same = gap == 0
        # tri[b, a] = t^(b - a - 1): a path crossing the columns in (a, b)
        tri = np.where(gap > 0, t ** np.maximum(gap - 1, 0), 0.0)
        # arrive[p, b]: landing at b below the next path's old column p
        arrive = np.where(same, casc, np.where(gap > 0, land, 0.0))
        # indexed [a, c] by a path's old column a and the smaller path's new
        # column c: c == a means a cascade already pushed this path out
        depart = np.where(same, 1.0, dep)
        keep = np.where(same, 0.0, stay)

        x = np.asarray(amp)
        if not c:
            # the entering path crosses columns 0 .. e-1 and lands at e
            if x.ndim:
                x = x[..., None] * _adjacent(arrive * t ** pos, x.ndim - 1,
                                             x.ndim + 1)
            else:
                x = x * land * t ** pos
        n = x.ndim
        for i in range(n - 1 if c else n - 2, -1, -1):
            if i + 1 < n:
                kept = x * _adjacent(keep, i, n)
                moved = x * _adjacent(depart, i, n)
            else:
                kept, moved = stay * x, dep * x
            moved = np.moveaxis(np.tensordot(tri, moved, axes=([1], [i])),
                                0, i)
            moved = moved * (_adjacent(arrive, i - 1, n) if i else land)
            x = kept + moved
        return x


def _rank_filter(states: dict, lam: tuple[int, ...], rows_left: int,
                 left_entry: bool) -> dict:
    # Same monotonicity pruning as the path enumerator.
    out = {}
    for sig, amp in states.items():
        ok = all(p <= lam[i] for i, p in enumerate(sig))
        if ok and left_entry:
            ok = all(p >= lam[i + rows_left] for i, p in enumerate(sig)
                     if i + rows_left < len(lam))
        if ok:
            out[sig] = amp
    return out


def F_eval(lam, mu, spectral, params: ModelParams) -> complex:
    """F_{lam/mu}(u_1, ..., u_n) by chaining one-row transfers."""
    lam, mu = as_parts(lam), as_parts(mu)
    spectral = tuple(spectral)
    if len(lam) != len(mu) + len(spectral):
        raise ValueError(f"need len(lam) = len(mu) + #spectral, got {len(lam)} "
                         f"vs {len(mu)} + {len(spectral)}")
    if not spectral:
        return 1.0 if lam == mu else 0.0
    max_col = lam[0] if lam else 0
    states = {mu: 1.0 + 0.0j}
    for r, u_r in enumerate(spectral):
        row = TransferRow(params, u_r, conjugated=False, left_entry=True)
        states = row.apply(states, max_col)
        states = _rank_filter(states, lam, len(spectral) - r - 1, True)
    return states.get(lam, 0.0)


def Gc_eval(lam, mu, spectral, params: ModelParams) -> complex:
    """G^c_{lam/mu}(u_1, ..., u_n) by chaining conjugated one-row transfers."""
    lam, mu = as_parts(lam), as_parts(mu)
    spectral = tuple(spectral)
    if len(lam) != len(mu):
        raise ValueError(f"length mismatch: {len(lam)} vs {len(mu)}")
    if not spectral:
        return 1.0 if lam == mu else 0.0
    max_col = lam[0] if lam else 0
    states = {mu: 1.0 + 0.0j}
    for _r, u_r in enumerate(spectral):
        row = TransferRow(params, u_r, conjugated=True, left_entry=False)
        states = row.apply(states, max_col)
        states = _rank_filter(states, lam, 0, False)
    return states.get(lam, 0.0)


def F_all(mu, spectral, params: ModelParams, max_part: int) -> dict:
    """F_{kappa/mu}(spectral) for every kappa with parts <= max_part."""
    mu = as_parts(mu)
    states = {mu: 1.0 + 0.0j}
    for u_r in spectral:
        row = TransferRow(params, u_r, conjugated=False, left_entry=True)
        states = row.apply(states, max_part)
    return states


def Gc_all(mu, spectral, params: ModelParams, max_part: int) -> dict:
    """G^c_{kappa/mu}(spectral) for every kappa with parts <= max_part."""
    mu = as_parts(mu)
    states = {mu: 1.0 + 0.0j}
    for u_r in spectral:
        row = TransferRow(params, u_r, conjugated=True, left_entry=False)
        states = row.apply(states, max_part)
    return states


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
    for _value, n_k in _mults(tuple(p for p in nu if p > 0)).items():
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


def verify_cauchy(N: int, K: int, u_vec, v_vec, params: ModelParams,
                  tol: float = 1e-10, max_part: int = 512) -> dict:
    """Verify sum_{nu in Sign^+_N} F_nu(u) G^c_nu(v) against the product form

        (q; q)_N prod_i [ 1/(1 - s u_i) prod_j (1 - q u_i v_j)/(1 - u_i v_j) ].

    The sum is truncated adaptively at part size L; the reported tail bound
    uses the worst pairwise factor ratio r (r < 1 by admissibility) inflated
    by the polynomial growth of the number and size of collections.
    """
    u_vec, v_vec = tuple(u_vec), tuple(v_vec)
    if len(u_vec) != N or len(v_vec) != K:
        raise ValueError("u_vec and v_vec must have lengths N and K")
    s, q = params.s, params.q
    for ui in u_vec:
        for vj in v_vec:
            if not pair_admissible(ui, vj, s):
                raise ValueError(f"pair (u={ui}, v={vj}) is not admissible")

    rhs: complex = q_pochhammer(q, q, N)
    for ui in u_vec:
        rhs /= (1.0 - s * ui)
        for vj in v_vec:
            rhs *= (1.0 - q * ui * vj) / (1.0 - ui * vj)

    r = max(abs((ui - s) / (1.0 - s * ui) * (vj - s) / (1.0 - s * vj))
            for ui in u_vec for vj in v_vec)
    # polynomial slop: #collections and their sizes grow like m^p at part m
    p_deg = (N - 1) + N * (N - 1)

    L = 16
    while True:
        f_table = F_all((), u_vec, params, L)
        g_table = Gc_all((0,) * N, v_vec, params, L)
        by_top: dict[int, complex] = {}
        for sig in sorted(f_table):
            gval = g_table.get(sig)
            if gval is None:
                continue
            m = sig[0] if sig else 0
            by_top[m] = by_top.get(m, 0.0) + f_table[sig] * gval
        # sum upward in part size until the remaining tail is certified small
        partial: complex = 0.0
        best = None
        for m in sorted(by_top):
            partial += by_top[m]
            r_eff = r * ((m + 2) / (m + 1)) ** p_deg
            if r_eff >= 1.0:
                continue
            tail = abs(by_top[m]) * r_eff / (1.0 - r_eff)
            if tail < tol * max(abs(rhs), 1e-300) / 10.0:
                best = (m, tail)
                break
        if best is not None:
            trunc_L, tail_bound = best
            lhs = partial
            break
        if L >= max_part:
            raise RuntimeError(f"Cauchy sum did not certify a tail bound by "
                               f"part size {max_part}")
        L *= 2

    rel_error = abs(lhs - rhs) / abs(rhs)
    return {"lhs": complex(lhs).real if abs(complex(lhs).imag) < 1e-12 else lhs,
            "rhs": complex(rhs).real if abs(complex(rhs).imag) < 1e-12 else rhs,
            "rel_error": rel_error,
            "truncation_L": trunc_L,
            "tail_bound": tail_bound,
            "term_ratio": r}


def verify_skew_cauchy(lam, nu, u_vec, v_vec, params: ModelParams,
                       max_part: int = 64) -> dict:
    """Verify the skew Cauchy identity

        sum_kappa G^c_{kappa/lam}(v) F_{kappa/nu}(u)
          = prod_{i,j} (1 - q u_i v_j)/(1 - u_i v_j)
            sum_mu F_{lam/mu}(u) G^c_{nu/mu}(v)

    with kappa truncated at max_part (the right side is a finite sum)."""
    lam, nu = as_parts(lam), as_parts(nu)
    u_vec, v_vec = tuple(u_vec), tuple(v_vec)
    if len(lam) != len(nu) + len(u_vec):
        raise ValueError("need len(lam) = len(nu) + len(u_vec)")
    q, s = params.q, params.s
    for ui in u_vec:
        for vj in v_vec:
            if not pair_admissible(ui, vj, s):
                raise ValueError(f"pair (u={ui}, v={vj}) is not admissible")

    f_table = F_all(nu, u_vec, params, max_part)
    g_table = Gc_all(lam, v_vec, params, max_part)
    lhs: complex = 0.0
    for sig in sorted(f_table):
        gval = g_table.get(sig)
        if gval is not None:
            lhs += f_table[sig] * gval

    cross: complex = 1.0
    for ui in u_vec:
        for vj in v_vec:
            cross *= (1.0 - q * ui * vj) / (1.0 - ui * vj)
    mu_cap = max([*lam, *nu, 0])
    rhs_sum: complex = 0.0
    for mu_sig in _signatures_below(nu, mu_cap):
        gval = Gc_eval(nu, mu_sig, v_vec, params)
        if gval == 0.0:
            continue
        rhs_sum += F_eval(lam, mu_sig, u_vec, params) * gval
    rhs = cross * rhs_sum
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_error": rel}


def _signatures_below(nu: tuple[int, ...], cap: int):
    """All nonnegative signatures mu with len(mu) = len(nu) and mu_i <= nu_i."""
    n = len(nu)

    def rec(i: int, hi: int, acc: list[int]):
        if i == n:
            yield tuple(acc)
            return
        for p in range(min(hi, nu[i]), -1, -1):
            acc.append(p)
            yield from rec(i + 1, p, acc)
            acc.pop()

    yield from rec(0, cap, [])


# ---------------------------------------------------------------------------
# scaled strict transfer (u-rows, homogeneous spectral u, s = q^{-1/2})


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


def _scaled_row_event_weight(kappa: tuple[int, ...], kp: tuple[int, ...],
                             stay: float, land: float, casc: float,
                             dep: float) -> float:
    """Weight of one strict row kappa -> kp (len kp = len kappa + 1) as a
    product over per-path events: a stationary path contributes `stay`; a
    moving path contributes an arrival (`casc` when it lands exactly on the
    occupied column above, else `land`) and a departure `dep` unless the path
    below lands on the vacated column."""
    r = len(kappa)
    out = 1.0
    for j in range(r + 1):
        if j < r and kp[j] == kappa[j]:
            out *= stay
            continue
        out *= casc if (j > 0 and kp[j] == kappa[j - 1]) else land
        if j < r and not (kp[j + 1] == kappa[j]):
            out *= dep
    return out


def _strict_interlacing_successors(kappa: tuple[int, ...], lo: int, hi: int):
    """Strict kp of length len(kappa)+1 with kp_{j+1} <= kappa_j <= kp_j and
    all parts in [lo, hi]."""
    r = len(kappa)

    def rec(j: int, prev: int, acc: list[int]):
        if j == r:
            low = lo
            high = min(kappa[r - 1] if r else hi, prev - 1)
        else:
            low = kappa[j]
            high = min(hi, prev - 1) if j else hi
            if j > 0:
                high = min(high, kappa[j - 1])
        for val in range(high, low - 1, -1):
            acc.append(val)
            if j == r:
                yield tuple(acc)
            else:
                yield from rec(j + 1, val, acc)
            acc.pop()

    yield from rec(0, hi + 2, [])


def F_scaled_strict(mu, params: ModelParams) -> float:
    """F_mu([u]^k) * t^{-|mu|} for strict nonnegative mu, via the per-event
    factorization of the strict one-row transfer.

    Stays O(1)-sized where the raw value would underflow for parts of order
    10^3.  Requires s = q^{-1/2} (guaranteed by ModelParams), under which
    nonstrict cross-sections cannot feed a strict top row.
    """
    mu = as_parts(mu)
    if not all(a > b for a, b in zip(mu, mu[1:])):
        raise ValueError(f"scaled transfer requires a strict signature, got {mu}")
    if mu and mu[-1] < 0:
        raise ValueError("scaled transfer requires a nonnegative signature")
    stay, land, casc, dep = _scaled_row_factors(params)
    k = len(mu)
    states: dict[tuple[int, ...], float] = {(): 1.0}
    for r in range(k):
        rows_left = k - r - 1
        nxt: dict[tuple[int, ...], float] = {}
        for kappa in sorted(states):
            amp = states[kappa]
            for kp in _strict_interlacing_successors(kappa, 0, mu[0]):
                ok = all(p <= mu[i] for i, p in enumerate(kp))
                ok = ok and all(p >= mu[i + rows_left]
                                for i, p in enumerate(kp)
                                if i + rows_left < k)
                if not ok:
                    continue
                wv = _scaled_row_event_weight(kappa, kp, stay, land, casc, dep)
                nxt[kp] = nxt.get(kp, 0.0) + amp * wv
        states = nxt
    return states.get(mu, 0.0)


def F_scaled_closed(mu, params: ModelParams) -> np.ndarray:
    """Closed form of F_scaled_strict for k <= 3, vectorized over an int
    array mu (..., k) of strict decreasing parts >= 0.  It depends only on
    the gaps g_i = mu_i - mu_{i+1}.

    With the per-path factors S, L, C, D of _scaled_row_factors, one row
    gives L and two give pair(g) = L^2 (C + S + (g - 1) L D) = alpha + beta g,
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
