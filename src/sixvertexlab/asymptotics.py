"""Steepest-descent machinery for the large-column-count limit.

The probability of a top row mu factors as A_M(mu) * B_M(mu), where A_M
carries the row partition function F_mu([u]^k) and B_M carries the boundary
function f(mu; [v]^M, rho) against the partition function

    Z_M = (q;q)_k ((1 - u/s)/(1 - s u))^k ((1 - q u v)/(1 - u v))^{k M}.

B_M is evaluated as a k-fold contour integral over the composite contour C
through the critical point u (vertical segment u -/+ 2iu joined to the left
half-circle of radius 2u about u).  Writing t = (u-s)/(1-su) and the
centered log ratios

    L_s(z) = log((1-sz)/(z-s)) - log((1-su)/(u-s)),
    L_v(z) = log((1-qvz)/(1-vz)) - log((1-quv)/(1-uv)),

the phase functions are G(z) = a L_s(z) + L_v(z) and g(z) = L_s(z), with
G(u) = g(u) = G'(u) = 0, G''(u) = 2c, g'(u) = b.  All logs take the
principal branch of the displayed Mobius ratios; because the exponents
multiplying L_s and L_v in the integrand are integers (the parts mu_i and
the column count M), the integrand value is independent of the branch
choice, and exp(M G + (d sqrt(M) x + h) g) reassembles exactly into those
integer powers.  Branch continuity along the contour is still checked
numerically for the descent diagnostics and fails loudly if node spacing
ever makes the phase ambiguous.

Re G <= 0 everywhere on C with the maximum only at z = u, so integrands stay
O(1) and the quadrature never fights exponential cancellation.  The nodes,
the tensor kernel and the node-doubling driver come from the package's one
contour-quadrature engine (quadrature.composite_nodes, tensor_integral,
adaptive); the segment nodes cluster near u with density proportional to
1/(1 + M |z - u|^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, as_parts
from .quadrature import (COMPOSITE_MAX_NODES, SEGMENT_NODES, adaptive,
                         composite_nodes, tensor_integral)
from .symfunc import F_scaled_closed, step_ratio


def binom2(k: int) -> int:
    return k * (k - 1) // 2


@dataclass(frozen=True)
class AsymptoticConstants:
    """The four constants (a, b, c, d) of the rescaling lambda ~ aM + d sqrt(M) x."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a > 0 and self.b < 0 and self.c > 0 and self.d > 0):
            raise ValueError(f"sign pattern (+,-,+,+) violated: {self}")


def constants(params: ModelParams) -> AsymptoticConstants:
    """Closed forms of (a, b, c, d); the parameter chain guarantees the signs."""
    q, s, u, v = params.q, params.s, params.u, params.v
    a = v * (u - 1 / s) * (u / s - 1) / ((1 - u * v) * (1 - q * u * v))
    b = (s * s - 1) / ((u - s) * (1 - s * u))
    c = 0.5 * (a * (1 / (u - s) ** 2 - s * s / (1 - s * u) ** 2)
               - q * q * v * v / (1 - q * u * v) ** 2
               + v * v / (1 - u * v) ** 2)
    d = -math.sqrt(2 * c) / b
    return AsymptoticConstants(a=a, b=b, c=c, d=d)


_POLE_NAMES = ("s", "1/s", "1/v", "1/(q v)")


def _check_pole(z: complex, params: ModelParams) -> None:
    poles = (params.s, 1 / params.s, 1 / params.v, 1 / (params.q * params.v))
    for name, pole in zip(_POLE_NAMES, poles):
        if z == pole:
            raise ValueError(f"phase function evaluated at the pole z = {name}")


def log_ratio_s(z, params: ModelParams):
    """Principal log((1-sz)/(z-s)) - log((1-su)/(u-s)); vanishes at z = u."""
    s, u = params.s, params.u
    return (np.log((1 - s * np.asarray(z, dtype=complex)) / (np.asarray(z, dtype=complex) - s))
            - cmath.log((1 - s * u) / (u - s)))


def log_ratio_v(z, params: ModelParams):
    """Principal log((1-qvz)/(1-vz)) - log((1-quv)/(1-uv)); vanishes at z = u."""
    q, u, v = params.q, params.u, params.v
    zz = np.asarray(z, dtype=complex)
    return (np.log((1 - q * v * zz) / (1 - v * zz))
            - cmath.log((1 - q * u * v) / (1 - u * v)))


def phase_G(z, params: ModelParams):
    """G(z) = a L_s(z) + L_v(z); G(u) = 0, G''(u) = 2c, Re G <= 0 on the contour."""
    if np.isscalar(z) or isinstance(z, complex):
        _check_pole(complex(z), params)
    a = constants(params).a
    out = a * log_ratio_s(z, params) + log_ratio_v(z, params)
    return complex(out) if out.ndim == 0 else out


def phase_g(z, params: ModelParams):
    """g(z) = L_s(z); g(u) = 0 and g'(u) = b."""
    if np.isscalar(z) or isinstance(z, complex):
        _check_pole(complex(z), params)
    out = log_ratio_s(z, params)
    return complex(out) if out.ndim == 0 else out


def contour_samples(params: ModelParams, n: int = 1000) -> np.ndarray:
    """Ordered sample points along C, z = u included exactly."""
    u = params.u
    n_seg = n // 2 + ((n // 2 + 1) % 2)  # odd so that y = 0 is a sample
    y = np.linspace(-2 * u, 2 * u, n_seg)
    seg = u + 1j * y
    theta = np.linspace(0.5 * np.pi, 1.5 * np.pi, n - n_seg + 2)[1:-1]
    arc = u + 2 * u * np.exp(1j * theta)
    return np.concatenate([seg, arc])


def branch_continuity_check(z_ordered: np.ndarray, params: ModelParams,
                            max_jump: float = 0.5 * np.pi) -> float:
    """Largest unwrapped phase step of the two Mobius ratios between adjacent
    contour samples; raises if any step is ambiguous (>= max_jump)."""
    worst = 0.0
    s, q, v = params.s, params.q, params.v
    for ratio in ((1 - s * z_ordered) / (z_ordered - s),
                  (1 - q * v * z_ordered) / (1 - v * z_ordered)):
        steps = np.abs(np.diff(np.unwrap(np.angle(ratio))))
        worst = max(worst, float(steps.max()))
    if worst >= max_jump:
        raise RuntimeError(
            f"phase step {worst:.3f} between adjacent contour nodes is too "
            f"large to track the branch; refine the sampling")
    return worst


def descent_profile(params: ModelParams, n: int = 1000, eps: float = 0.1) -> dict:
    """Sample Re G over C: maximum, whether it is attained at z = u, and a
    strictly negative bound outside the +/- eps sub-segment around u."""
    z = contour_samples(params, n)
    branch_continuity_check(z, params)
    re_g = np.real(constants(params).a * log_ratio_s(z, params)
                   + log_ratio_v(z, params))
    idx = int(np.argmax(re_g))
    outside = np.abs(z - params.u) > eps
    delta = float(np.max(re_g[outside]))
    return {
        "max_re_G": float(re_g[idx]),
        "argmax_is_u": bool(abs(z[idx] - params.u) < 1e-12),
        "eps": eps,
        "delta_bound_outside": delta,   # Re G <= delta < 0 off the core piece
        "n_samples": int(len(z)),
    }


def quadratic_expansion_fit(params: ModelParams, radius: float = 0.1,
                            n: int = 400) -> dict:
    """Fitted constant C1 with |G(z) - c (z-u)^2| <= C1 |z-u|^3 and
    |g(z) - b (z-u)| <= C1 |z-u|^2 on |z-u| <= radius, plus the feasibility
    margin 2 C1 eps1 < c for the reported eps1."""
    cst = constants(params)
    rng = np.random.default_rng(0)
    r = radius * rng.random(n) ** 0.5
    phi = 2 * np.pi * rng.random(n)
    z = params.u + r * np.exp(1j * phi)
    z = z[np.abs(z - params.u) > 1e-8]
    G = cst.a * log_ratio_s(z, params) + log_ratio_v(z, params)
    g = log_ratio_s(z, params)
    dz = z - params.u
    c1_g = float(np.max(np.abs(G - cst.c * dz ** 2) / np.abs(dz) ** 3))
    c1_small = float(np.max(np.abs(g - cst.b * dz) / np.abs(dz) ** 2))
    c1 = max(c1_g, c1_small)
    eps1 = min(radius, 0.999 * cst.c / (2 * c1))
    return {"C1": c1, "eps1": eps1, "feasible": 2 * c1 * eps1 < cst.c,
            "radius": radius}


# ---------------------------------------------------------------------------
# the contour-integral engine


def h_M_offset(x: float, M: int, a: float, d: float) -> float:
    """The unique h in (-1, 0] with a M + d sqrt(M) x + h an integer."""
    y = a * M + d * math.sqrt(M) * x
    return math.floor(y) - y


def scaled_parts(x_values, M: int, a: float, scale: float) -> tuple[int, ...]:
    """lambda_i(M) = floor(a M + scale sqrt(M) x_{k-i+1}) for ascending x."""
    xs = tuple(x_values)
    if any(p >= q_ for p, q_ in zip(xs, xs[1:])):
        raise ValueError(f"x values must be strictly increasing, got {xs}")
    root_m = math.sqrt(M)
    return tuple(math.floor(a * M + scale * root_m * x) for x in reversed(xs))


# deep-tail values of I_C sit at the absolute noise floor of the quadrature
IC_ATOL = 1e-14


def exponent_rows(z: np.ndarray, wts: np.ndarray, exponents, M: int,
                  params: ModelParams) -> np.ndarray:
    """Row i is base(z) exp(l_i L_s(z) + M L_v(z)) times the node weights,
    for each exponent l_i: the integrand family of I_C on one axis."""
    s, u = params.s, params.u
    ls = log_ratio_s(z, params)
    lv = log_ratio_v(z, params)
    base = s * (1 - s * u) / ((1 - s * z) * (1 - u / s)) * wts
    with np.errstate(under="ignore"):
        return np.exp(np.multiply.outer(exponents, ls) + M * lv) * base


def contour_boundary_integral(exponents, M: int, params: ModelParams,
                              tol: float = 1e-9) -> complex:
    """I_C(l; M) = oint_C^k prod_{a<b} (z_a - z_b)/(z_a - q z_b)
                   prod_i base(z_i) exp(l_i L_s(z_i) + M L_v(z_i)) dz_i/(2 pi i),

    with adaptive node doubling.  This equals f(l; [v]^M, rho)/Z_M times
    t^{|l|} for integer parts l_i >= 1 (everything normalized so the value
    stays O(1) for parts near a M).  The relative criterion has the absolute
    escape IC_ATOL for deep-tail values."""
    exponents = tuple(exponents)
    if len(exponents) == 0 or exponents[-1] < 1:
        raise ValueError(f"contour engine requires parts >= 1, got {exponents}")

    def evaluate(n: int) -> complex:
        z, wts = composite_nodes(params.u, M, n)
        rows = exponent_rows(z, wts, exponents, M, params)
        return tensor_integral(list(rows[:, None]), z, params.q).item()

    return adaptive(evaluate, SEGMENT_NODES, COMPOSITE_MAX_NODES, tol,
                    atol=IC_ATOL)


def _w_factors(params: ModelParams) -> tuple[float, float]:
    q, s, u = params.q, params.s, params.u
    w_a = (1 - q) / (1 - s * u)
    w_b = (1 - 1 / q) * u / (1 - s * u)
    return w_a, w_b


def bm_prefactor(k: int, params: ModelParams) -> float:
    """w_a^{C(k+1,2)} w_b^{C(k,2)} t^{-C(k,2)}; B_M = this * M^{C(k,2)/2} * I_C."""
    w_a, w_b = _w_factors(params)
    t = step_ratio(params)
    return w_a ** binom2(k + 1) * w_b ** binom2(k) * t ** (-binom2(k))


def A_M(mu, M: int, params: ModelParams) -> float:
    """F_mu([u]^k) with the normalization that tends to the Vandermonde of the
    rescaled coordinates divided by prod (j-i); k <= 3, from the closed form
    of the scaled row function that the contour pmf uses as well."""
    mu = as_parts(mu)
    k = len(mu)
    w_a, w_b = _w_factors(params)
    t = step_ratio(params)
    return (float(F_scaled_closed(mu, params)) * M ** (-binom2(k) / 2)
            * w_a ** -binom2(k + 1) * w_b ** -binom2(k) * t ** binom2(k))


def B_M(mu, M: int, params: ModelParams, route: str = "contour",
        tol: float = 1e-9) -> float:
    """The boundary factor with its normalization, so that
    A_M(mu) * B_M(mu) = P(top row = mu) exactly.

    route "contour" uses the composite-contour integral; route "direct" uses
    the boundary nu-sum and the product partition function (small M only).
    """
    mu = as_parts(mu)
    k = len(mu)
    if route == "contour":
        val = contour_boundary_integral(mu, M, params, tol=tol)
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            raise RuntimeError(f"B_M integral has non-real residue: {val}")
        return bm_prefactor(k, params) * M ** (binom2(k) / 2) * val.real
    if route == "direct":
        from .boundary import f_direct
        from .measure import partition_Z
        w_a, w_b = _w_factors(params)
        t = step_ratio(params)
        f_val = f_direct(mu, params.v, M, params)
        return (f_val * M ** (binom2(k) / 2) * w_a ** binom2(k + 1)
                * w_b ** binom2(k) * t ** (sum(mu) - binom2(k))
                / partition_Z(k, M, params))
    raise ValueError(f"unknown route {route!r}")


def B_M_contour(x_values, M: int, params: ModelParams,
                tol: float = 1e-9) -> float:
    """d^k M^{k/2} B_M(lambda(M)) at lambda_i(M) = floor(aM + d sqrt(M) x_{k-i+1});
    converges to d^{-C(k,2)} (2 pi)^{-k/2} prod_{i<j}(x_j - x_i) prod e^{-x_i^2/2}."""
    xs = tuple(x_values)
    k = len(xs)
    cst = constants(params)
    A_bound = max(abs(x) for x in xs) if xs else 0.0
    if cst.a * M - A_bound * math.sqrt(M) < 1.0:
        raise ValueError(f"M = {M} too small: need a M - max|x| sqrt(M) >= 1")
    lam = scaled_parts(xs, M, cst.a, cst.d)
    val = contour_boundary_integral(lam, M, params, tol=tol)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise RuntimeError(f"B_M integral has non-real residue: {val}")
    a_k = cst.d ** k * bm_prefactor(k, params)
    return a_k * M ** (binom2(k + 1) / 2) * val.real


def bm_limit(x_values, k: int, params: ModelParams) -> float:
    """The limiting value d^{-C(k,2)} (2 pi)^{-k/2} prod_{i<j}(x_j - x_i)
    prod_i e^{-x_i^2/2} of d^k M^{k/2} B_M."""
    xs = tuple(x_values)
    cst = constants(params)
    out = cst.d ** (-binom2(k)) * (2 * np.pi) ** (-k / 2)
    for i in range(k):
        for j in range(i + 1, k):
            out *= xs[j] - xs[i]
        out *= math.exp(-xs[i] ** 2 / 2)
    return out


def am_limit(x_values) -> float:
    """prod_{i<j} (x_j - x_i)/(j - i), the limit of A_M(lambda(M))."""
    xs = tuple(x_values)
    out = 1.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= (xs[j] - xs[i]) / (j - i)
    return out


# ---------------------------------------------------------------------------
# Hermite helpers


def hermite(n: int, x: float) -> float:
    """Probabilists' (monic) Hermite polynomial h_n, h_0 = 1, h_1 = x,
    h_{n+1} = x h_n - n h_{n-1}."""
    if n < 0 or n > 20:
        raise ValueError(f"hermite implemented for 0 <= n <= 20, got {n}")
    h_prev, h_cur = 1.0, x
    if n == 0:
        return 1.0
    for m in range(1, n):
        h_prev, h_cur = h_cur, x * h_cur - m * h_prev
    return h_cur


def psi(n: int, x: float) -> complex:
    """psi_n(x) = int z^n e^{-z^2/2 - i x z} dz/(2 pi)
               = (-i)^n (2 pi)^{-1/2} e^{-x^2/2} h_n(x)."""
    return (-1j) ** n * (2 * np.pi) ** -0.5 * math.exp(-x * x / 2) * hermite(n, x)
