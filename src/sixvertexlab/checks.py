"""Check functions shared by the command line and the acceptance suite.

Each check compares two routes to one quantity and returns (value,
reference, error, diagnostics); relative errors are taken against the
reference route, floored at 1e-300.  No tolerance is applied here: the CLI
and each test apply their own, at their own seeds and sizes.
"""

from __future__ import annotations

import math
import random

from . import asymptotics as asy
from . import boundary as bnd
from . import paths, symfunc
from .core import ModelParams, strict_atoms
from .util import parallel_map
from .weights import conjugation_factor

# (lam, M) pairs of the two f routes, and of the two circle radii
F_ROUTE_PAIRS = (((2,), 2), ((5,), 10), ((7,), 20), ((3, 1), 4),
                 ((6, 2), 10), ((8, 5), 20))
RADIUS_PAIRS = (((4, 2), 6), ((5, 1), 12))


def random_point(rng: random.Random) -> ModelParams:
    """One point of the chain v^-1 > u > s > 1: q uniform in [0.15, 0.85],
    u/s - 1 in [0.05, 1.5] and u v in [0.05, 0.95]."""
    q = rng.uniform(0.15, 0.85)
    s = q ** -0.5
    u = s * (1.0 + rng.uniform(0.05, 1.5))
    v = rng.uniform(0.05, 0.95) / u
    return ModelParams(q=q, u=u, v=v)


def random_points(seed: int, count: int) -> list[ModelParams]:
    rng = random.Random(seed)
    return [random_point(rng) for _ in range(count)]


def _rel(got, want) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _worst_row(rows: list[tuple]) -> tuple:
    """A result over rows whose last entry is the error."""
    worst = max(r[-1] for r in rows)
    return worst, 0.0, worst, {"rows": rows}


def route_agreement(points, ratios, max_part: int, threads: int = 1):
    """F_lam(u ratios[:k]) for strict lam with k <= len(ratios) parts <=
    max_part: enumeration (collections shared across points) and
    symmetrization against the transfer DP."""
    collections = {tuple(lam): paths.enumerate_F_collections((), lam, k)
                   for k in range(1, len(ratios) + 1)
                   for lam in strict_atoms(k, 0, max_part).tolist()}

    def worst_at(point: ModelParams) -> float:
        us = tuple(point.u * r for r in ratios)
        worst = 0.0
        for lam, cols in collections.items():
            k = len(lam)
            dp = symfunc.F_eval(lam, (), us[:k], point)
            en = sum(paths.collection_weight(c, us[:k], point) for c in cols)
            sym = symfunc.F_symmetrization(lam, us[:k], point)
            worst = max(worst, _rel(en, dp), _rel(sym, dp))
        return worst

    worst = max(parallel_map(worst_at, points, threads))
    return worst, 0.0, worst, {"signatures": len(collections)}


def geometric_specialization(points, max_part: int):
    """F_mu(u, uq, ..) and G^c_mu(v, vq, ..) for strict mu with N <= 3 parts
    <= max_part: the transfer DP against the closed forms, split by
    function in the diagnostics."""
    worst_f = worst_g = 0.0
    for p in points:
        for N in (1, 2, 3):
            us = tuple(p.u * p.q ** i for i in range(N))
            vs = tuple(p.v * p.q ** i for i in range(N))
            for mu in strict_atoms(N, 0, max_part).tolist():
                worst_f = max(worst_f, _rel(symfunc.F_eval(mu, (), us, p),
                                            symfunc.F_geometric(mu, p.u, p)))
                worst_g = max(worst_g,
                              _rel(symfunc.Gc_eval(mu, (0,) * N, vs, p),
                                   symfunc.Gc_geometric(mu, p.v, N, p)))
    worst = max(worst_f, worst_g)
    return worst, 0.0, worst, {"F": worst_f, "Gc": worst_g}


def counting(ks, max_part: int):
    """Enumerated F-collections of every strict lam (k in ks parts <=
    max_part) against count_collections_formula, and the typical ones
    against typical_count_lower_bound; value = number of failures."""
    lams = [lam for k in ks for lam in strict_atoms(k, 0, max_part).tolist()]
    count_bad, bound_bad = [], []
    for lam in lams:
        cols = paths.enumerate_F_collections((), lam, len(lam))
        if len(cols) != paths.count_collections_formula(lam):
            count_bad.append(lam)
        lower = paths.typical_count_lower_bound(lam)
        if lower > 0 and sum(map(paths.is_typical, cols)) < lower:
            bound_bad.append(lam)
    bad = len(count_bad) + len(bound_bad)
    return bad, 0, bad, {"signatures": len(lams),
                         "count_mismatches": count_bad,
                         "bound_violations": bound_bad}


def typical_weight(points, lams):
    """Every typical F-collection weight of lam at u_i = u against
    ((1-q)/(1-su))^(k(k+1)/2) ((1-1/q) u/(1-su))^(k(k-1)/2)
    ((u-s)/(1-su))^(|lam| - k(k-1)/2)."""
    worst = 0.0
    for lam in lams:
        k, size = len(lam), sum(lam)
        typical = [c for c in paths.enumerate_F_collections((), lam, k)
                   if paths.is_typical(c)]
        for p in points:
            s, q, u = p.s, p.q, p.u
            expect = (((1 - q) / (1 - s * u)) ** (k * (k + 1) // 2)
                      * ((1 - 1 / q) * u / (1 - s * u)) ** (k * (k - 1) // 2)
                      * ((u - s) / (1 - s * u)) ** (size - k * (k - 1) // 2))
            for c in typical:
                got = paths.collection_weight(c, (u,) * k, p)
                worst = max(worst, _rel(got, expect))
    return worst, 0.0, worst, {}


def f_contour_vs_direct(params: ModelParams):
    """f(lam; v, M) over F_ROUTE_PAIRS, circle contour against direct sum;
    rows (lam, M, contour, direct, error)."""
    rows = []
    for lam, M in F_ROUTE_PAIRS:
        fc = bnd.f_contour(lam, params.v, M, params, tol=1e-10)
        fd = bnd.f_direct(lam, params.v, M, params)
        rows.append((lam, M, fc, fd, _rel(fc, fd)))
    return _worst_row(rows)


def f_radius_independence(params: ModelParams):
    """Contour f over RADIUS_PAIRS on circles 1/4 and 3/4 of the way from s
    to 1/v; rows (lam, M, inner, outer, error)."""
    s, v = params.s, params.v
    inner = s + 0.25 * (1 / v - s)
    outer = s + 0.75 * (1 / v - s)
    rows = []
    for lam, M in RADIUS_PAIRS:
        a = bnd.f_contour(lam, v, M, params, inner, tol=1e-10)
        b = bnd.f_contour(lam, v, M, params, outer, tol=1e-10)
        rows.append((lam, M, a, b, _rel(b, a)))
    return _worst_row(rows)


def Gc_contour_vs_transfer(params: ModelParams, cases):
    """G^c_lam(vs) per (lam, vs) case, contour formula against the transfer
    DP; rows (lam, contour, transfer, error)."""
    rows = []
    for lam, vs in cases:
        ct = bnd.Gc_contour(lam, vs, params)
        dp = symfunc.Gc_eval(lam, (0,) * len(lam), vs, params)
        rows.append((lam, ct, dp, _rel(ct, dp)))
    return _worst_row(rows)


def total_weight_signs(params: ModelParams, lams, M: int):
    """Raw f(lam; v, M) against the sign (-1)^(|lam| + k) and the path weight
    F_lam([u]^k) f(lam) against positivity; value = lam failing either."""
    bad = []
    for lam in lams:
        k = len(lam)
        f_val = bnd.f_direct(lam, params.v, M, params)
        F_val = complex(symfunc.F_eval(lam, (), (params.u,) * k, params)).real
        if (math.copysign(1.0, f_val) != (-1.0) ** (sum(lam) + k)
                or F_val * f_val <= 0.0):
            bad.append(lam)
    return len(bad), 0, len(bad), {"failing": bad}


def branching_middle_sum(params: ModelParams, lam, us):
    """F_lam(us) against sum_kappa F_kappa(u_1) F_{lam/kappa}(us[1:]), in
    absolute value; the error is relative to F_lam(us)."""
    lhs = symfunc.F_eval(lam, (), us, params)
    first = symfunc.transfer({(): 1.0 + 0.0j}, us[:1], params, False,
                             ((lam[0],), ()))
    mid = sum(amp * symfunc.F_eval(lam, kappa, us[1:], params)
              for kappa, amp in first.items())
    return abs(lhs), abs(mid), _rel(mid, lhs), {}


def conjugation_relation(params: ModelParams):
    """G^c_{lam/mu} = (c(lam)/c(mu)) G_{lam/mu} on three strict pairs at
    (v, 0.8 v)[:len(lam)]: the conjugated DP against the plain path sum."""
    worst = 0.0
    for lam, mu in [((3,), (1,)), ((4, 2), (2, 1)), ((5, 3, 1), (3, 2, 0))]:
        vs = (params.v, 0.8 * params.v)[:min(2, len(lam))]
        gc = symfunc.Gc_eval(lam, mu, vs, params)
        plain = sum(paths.collection_weight(c, vs, params, conjugated=False)
                    for c in paths.enumerate_Gc_collections(mu, lam, len(vs)))
        ratio = (conjugation_factor(lam, params)
                 / conjugation_factor(mu, params))
        worst = max(worst, _rel(ratio * plain, gc))
    return worst, 0.0, worst, {}


def skew_reduces_to_cauchy(params: ModelParams, us, vs):
    """The skew Cauchy identity's right side at lam = 0^N, nu = (), cross
    F_{0^N}(u) by the transfer DP, against the plain product form (both
    left sides are the one sum); diagnostics: the skew identity's error."""
    skew = symfunc.verify_skew_cauchy((0,) * len(us), (), us, vs, params)
    plain = symfunc.verify_cauchy(len(us), len(vs), us, vs, params,
                                  tol=1e-10)
    a, b = complex(skew["rhs"]).real, complex(plain["rhs"]).real
    return a, b, _rel(a, b), {"skew_rel_error": skew["rel_error"]}


def sign_pattern(points):
    """Signs (+, -, +, +) of (a, b, c, d) per point, which constants()
    enforces by raising ValueError; value = points it refuses."""
    raised = 0
    for point in points:
        try:
            asy.constants(point)
        except ValueError:
            raised += 1
    return raised, 0, raised, {"raised": raised}


def critical_points(point: ModelParams) -> dict[str, tuple]:
    """Finite differences at z = u, step 1e-5 u: G(u), g(u), G'(u) (one
    Richardson step) against 0, G''(u) against 2c, g'(u) against b; one
    (value, reference, error, diagnostics) per quantity."""
    cst = asy.constants(point)
    u = point.u
    h = 1e-5 * u
    G = lambda z: asy.phase_G(z, point)
    g = lambda z: asy.phase_g(z, point)
    d1 = (G(u + h) - G(u - h)) / (2 * h)
    d1h = (G(u + h / 2) - G(u - h / 2)) / h
    rich = abs((4 * d1h - d1) / 3)
    second = ((G(u + h) - 2 * G(u) + G(u - h)) / h ** 2).real
    gp = ((g(u + h) - g(u - h)) / (2 * h)).real
    return {"G(u)": (abs(G(u)), 0.0, abs(G(u)), {}),
            "g(u)": (abs(g(u)), 0.0, abs(g(u)), {}),
            "G'(u)": (rich, 0.0, rich, {}),
            "G''(u)-2c": (second, 2 * cst.c, abs(second - 2 * cst.c), {}),
            "g'(u)-b": (gp, cst.b, abs(gp - cst.b), {})}
