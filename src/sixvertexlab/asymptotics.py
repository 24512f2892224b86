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
from .quadrature import (COMPOSITE_MAX_NODES, SEGMENT_NODES,
                         QuadratureError, adaptive, composite_nodes,
                         tensor_integral)
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


def contour_samples(params: ModelParams) -> np.ndarray:
    """1000 ordered sample points along C, z = u included exactly."""
    u = params.u
    seg = u + 1j * np.linspace(-2 * u, 2 * u, 501)  # odd: y = 0 is a sample
    theta = np.linspace(0.5 * np.pi, 1.5 * np.pi, 501)[1:-1]
    arc = u + 2 * u * np.exp(1j * theta)
    return np.concatenate([seg, arc])


def branch_continuity_check(z_ordered: np.ndarray,
                            params: ModelParams) -> float:
    """Largest unwrapped phase step of the two Mobius ratios between adjacent
    contour samples; raises if any step is ambiguous (>= pi/2)."""
    worst = 0.0
    s, q, v = params.s, params.q, params.v
    for ratio in ((1 - s * z_ordered) / (z_ordered - s),
                  (1 - q * v * z_ordered) / (1 - v * z_ordered)):
        steps = np.abs(np.diff(np.unwrap(np.angle(ratio))))
        worst = max(worst, float(steps.max()))
    if worst >= 0.5 * np.pi:
        raise RuntimeError(
            f"phase step {worst:.3f} between adjacent contour nodes is too "
            f"large to track the branch; refine the sampling")
    return worst


def descent_profile(params: ModelParams) -> dict:
    """Sample Re G over C: maximum, whether it is attained at z = u, and a
    strictly negative bound outside the +/- 0.1 sub-segment around u."""
    z = contour_samples(params)
    branch_continuity_check(z, params)
    re_g = np.real(phase_G(z, params))
    idx = int(np.argmax(re_g))
    outside = np.abs(z - params.u) > 0.1
    delta = float(np.max(re_g[outside]))
    return {
        "max_re_G": float(re_g[idx]),
        "argmax_is_u": bool(abs(z[idx] - params.u) < 1e-12),
        "eps": 0.1,
        "delta_bound_outside": delta,   # Re G <= delta < 0 off the core piece
        "n_samples": int(len(z)),
    }


# ---------------------------------------------------------------------------
# the contour-integral engine


def scaled_parts(x_values, M: int, a: float, scale: float) -> tuple[int, ...]:
    """lambda_i(M) = floor(a M + scale sqrt(M) x_{k-i+1}) for ascending x."""
    xs = tuple(x_values)
    if any(p >= q_ for p, q_ in zip(xs, xs[1:])):
        raise ValueError(f"x values must be strictly increasing, got {xs}")
    root_m = math.sqrt(M)
    return tuple(math.floor(a * M + scale * root_m * x) for x in reversed(xs))


# relative tolerance of a single I_C (max-abs change between doublings); the
# deep-tail values sit at the absolute noise floor IC_ATOL of the quadrature
IC_TOL = 1e-9
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


def contour_boundary_integral(exponents, M: int,
                              params: ModelParams) -> float:
    """I_C(l; M) = oint_C^k prod_{a<b} (z_a - z_b)/(z_a - q z_b)
                   prod_i base(z_i) exp(l_i L_s(z_i) + M L_v(z_i)) dz_i/(2 pi i),

    with adaptive node doubling.  This equals f(l; [v]^M, rho)/Z_M times
    t^{|l|} for integer parts l_i >= 1 (everything normalized so the value
    stays O(1) for parts near a M).  The relative criterion IC_TOL has the
    absolute escape IC_ATOL for deep-tail values.  The value is real; an
    imaginary residue above 1e-8 relative raises QuadratureError."""
    exponents = tuple(exponents)
    if len(exponents) == 0 or exponents[-1] < 1:
        raise ValueError(f"contour engine requires parts >= 1, got {exponents}")

    def evaluate(n: int) -> complex:
        z, wts = composite_nodes(params.u, M, n)
        rows = exponent_rows(z, wts, exponents, M, params)
        return tensor_integral(rows, z, params.q)

    val = adaptive(evaluate, SEGMENT_NODES, COMPOSITE_MAX_NODES, IC_TOL,
                   atol=IC_ATOL)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise QuadratureError("I_C integral has a non-real residue",
                              {"estimate": repr(val), "tol": 1e-8})
    return val.real


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


def B_M(mu, M: int, params: ModelParams) -> float:
    """The boundary factor with its normalization, so that
    A_M(mu) * B_M(mu) = P(top row = mu) exactly, from the composite-contour
    integral."""
    mu = as_parts(mu)
    k = len(mu)
    return (bm_prefactor(k, params) * M ** (binom2(k) / 2)
            * contour_boundary_integral(mu, M, params))


def bm_parts(x_values, M: int, params: ModelParams) -> tuple[int, ...]:
    """lambda(M) = scaled_parts(x, M, a, d), the parts B_M_contour integrates
    at; ValueError unless they are all >= 1."""
    cst = constants(params)
    lam = scaled_parts(x_values, M, cst.a, cst.d)
    if min(lam, default=0) < 1:
        raise ValueError(f"M = {M} too small: parts {lam} must all be >= 1")
    return lam


def B_M_contour(x_values, M: int, params: ModelParams) -> float:
    """d^k M^{k/2} B_M(lambda(M)) at lambda_i(M) = floor(aM + d sqrt(M) x_{k-i+1});
    converges to d^{-C(k,2)} (2 pi)^{-k/2} prod_{i<j}(x_j - x_i) prod e^{-x_i^2/2}."""
    lam = bm_parts(x_values, M, params)
    k = len(lam)
    a_k = constants(params).d ** k * bm_prefactor(k, params)
    return (a_k * M ** (binom2(k + 1) / 2)
            * contour_boundary_integral(lam, M, params))


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
