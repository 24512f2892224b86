"""The boundary weight function f(lambda; v, rho) and contour evaluators.

Two independent routes are provided.  The direct route evaluates

    f(lambda; v, rho) = (-1)^k (q; q)_k  sum_nu  prod_j (-s)^{nu_j}
                                         G^c_{lambda/nu}(v, ..., v)

with nu running over signatures with distinct parts >= 1 (everything else
contributes 0); the sum is pushed through the conjugated row transfer by
linearity, which prunes structurally-zero skew terms early.  The batch form
f_direct_batch pushes it through one conjugated StrictRow, built once for
its range and applied M times.  The contour
route evaluates the k-fold integral

    f = c(lambda) (q;q)_k  oint..oint  prod_{a<b} (u_a - u_b)/(u_a - q u_b)
        prod_i [ 1/(-s (1 - s u_i)) ((1 - s u_i)/(u_i - s))^{lambda_i} ]
        prod_{i,j} (1 - q u_i v_j)/(1 - u_i v_j)  du_i/(2 pi I)

over a zero-centered circle of radius R in (s, min v_j^{-1}), with the
periodic-trapezoid node family, tensor kernel and node-doubling driver of the
package's one contour-quadrature engine (quadrature.py).  One circle
integral serves f and the analogous integral for G^c_lambda.

Both integrals are real for real inputs by conjugation symmetry of the
integrand over the circle; the real part is taken only after asserting the
imaginary residue is small.
"""

from __future__ import annotations

import numpy as np

from .core import ModelParams, as_parts, q_pochhammer, strict_atoms
from .quadrature import QuadratureError, adaptive, circle_nodes, tensor_integral
from .symfunc import StrictRow, transfer
from .weights import conjugation_factor


# node counts of the circle quadrature: the first evaluation, and the most
# that node doubling may reach, a bound on time (there a k = 2 integral
# holds about 8 MiB, where its full kernel would take 256 MiB)
CIRCLE_NODES = 64
CIRCLE_MAX_NODES = 1 << 12


def default_radius(params: ModelParams, v_values) -> float:
    """Midpoint of the admissible band (s, min |v|^{-1}), maximizing distance
    to both pole families."""
    v_values = tuple(abs(v) for v in v_values)
    hi = min(1.0 / v for v in v_values)
    if hi <= params.s:
        raise ValueError(f"no admissible radius: s = {params.s}, min 1/|v| = {hi}")
    return 0.5 * (params.s + hi)


def _circle_integral(lam, column, radius: float, tol: float,
                     params: ModelParams) -> complex:
    """c(lam) (q;q)_k times the k-fold integral over |z| = radius whose row p
    is column(z) ((1 - s z)/(z - s))^lam_p, node-doubled to tol."""
    s, q = params.s, params.q

    def evaluate(n: int) -> complex:
        z, wts = circle_nodes(radius, n)
        base, ratio = column(z), (1.0 - s * z) / (z - s)
        return tensor_integral(np.array([base * ratio ** p * wts
                                         for p in lam]), z, q)

    val = adaptive(evaluate, CIRCLE_NODES, CIRCLE_MAX_NODES, tol)
    return val * conjugation_factor(lam, params) * q_pochhammer(q, q, len(lam))


def Gc_contour(lam, v_values, params: ModelParams) -> complex:
    """G^c_lambda(v_1..v_N) for lam with lam_k >= 1, by the k-fold integral
    over the circle |z| = default_radius to tolerance 1e-10; independent of
    the transfer evaluators."""
    lam = as_parts(lam)
    v_values = tuple(v_values)
    k = len(lam)
    if k == 0 or lam[-1] < 1:
        raise ValueError(f"contour formula requires lam_k >= 1, got {lam}")
    if len(v_values) < k:
        raise ValueError(f"need at least k = {k} spectral values")
    s, q = params.s, params.q
    radius = default_radius(params, v_values)  # refuses any |v_i| >= 1/s

    def column(z):
        col = np.ones_like(z)
        for v in v_values:
            col = col * (1.0 - q * z * v) / (1.0 - z * v)
        return col / ((1.0 - s * z) * (z - s))

    return _circle_integral(lam, column, radius, 1e-10, params)


def f_contour(lam, v: float, M: int, params: ModelParams,
              radius: float | None = None, tol: float = 1e-9) -> float:
    """f(lambda; [v]^M, rho) by the k-fold integral over the circle |z| =
    radius (default_radius if None), for lam_k >= 1."""
    lam = as_parts(lam)
    k = len(lam)
    if k == 0 or lam[-1] < 1:
        raise ValueError(f"contour formula requires lam_k >= 1, got {lam}")
    if any(a == b for a, b in zip(lam, lam[1:])):
        return 0.0  # c(lambda) vanishes
    s, q = params.s, params.q
    if not (0 < v < 1.0 / s):
        raise ValueError(f"need v in (0, 1/s), got {v}")
    if radius is None:
        radius = default_radius(params, (v,))
    elif not s < radius < 1.0 / v:
        raise ValueError(f"radius {radius} outside admissible band "
                         f"({s}, {1.0 / v})")
    val = _circle_integral(
        lam, lambda z: ((1.0 - q * z * v) / (1.0 - z * v)) ** M
        / (-s * (1.0 - s * z)), radius, tol, params)
    if abs(val.imag) > tol * max(1.0, abs(val.real)):
        raise QuadratureError("f contour integral has a non-real residue",
                              {"estimate": repr(val), "tol": tol})
    return val.real


def f_direct(lam, v: float, M: int, params: ModelParams) -> float:
    """f(lambda; [v]^M, rho) by the boundary sum over distinct nu >= 1.

    Returns 0 for lam with a zero part or a repeated part.  The nu-sum is
    evaluated by linearity through M conjugated transfer rows, restricted to
    nu contained in lam (all other skew terms vanish).
    """
    lam = as_parts(lam)
    k = len(lam)
    if k == 0:
        return 1.0
    if lam[-1] <= 0 or any(a == b for a, b in zip(lam, lam[1:])):
        return 0.0
    s, q = params.q ** -0.5, params.q
    # distinct-part nu with nu_i in [1, lam_i] rank-wise: the support of the
    # boundary sum inside lam
    below = strict_atoms(k, 1, lam[0])
    below = below[(below <= lam).all(axis=1)]
    states = {nu: (-s) ** sum(nu) for nu in map(tuple, below.tolist())}
    val = transfer(states, (v,) * M, params, True, (lam, lam)).get(lam, 0.0)
    out = (-1.0) ** k * q_pochhammer(q, q, k) * val
    return complex(out).real


def f_direct_batch(k: int, max_part: int, M: int,
                   params: ModelParams) -> np.ndarray:
    """f(lambda; [params.v]^M, rho) for every strict lambda of length k with
    parts in [1, max_part], as the (max_part + 1)^k array indexed by lambda
    and 0 off those, from a single forward pass of the boundary sum through
    M conjugated strict-state rows (conjugated rows keep strict states
    strict, so no other state is ever reached): one StrictRow on [0,
    max_part], its tables built once, applied M times.  The start amplitudes
    (-s)^|nu| are read off one table of Python powers.  Each row's crossing
    weight t = (v - s)/(1 - s v) has |t| > 1 and enters as t^gap, up to
    |t|^(max_part - 1); past the float range of that power (max_part >=
    1,208 at the display point s = sqrt 2, v = 1/4, |t| = 1.80) it raises
    OverflowError with k, max_part, M and s before the row is built, and it
    returns no non-finite value."""
    s, q = params.s, params.q
    amp = np.zeros((max_part + 1,) * k)
    atoms = strict_atoms(k, 1, max_part)
    try:
        # a float power raises OverflowError where the rows' t^gap would
        abs((params.v - s) / (1 - s * params.v)) ** (max_part - 1)
        power = np.array([(-s) ** e for e in range(k * max_part + 1)])
        amp[tuple(atoms.T)] = power[atoms.sum(axis=1)]
        row = StrictRow(params, params.v, True, max_part)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(M):
                amp = row.apply(amp)
        if not np.isfinite(amp).all():
            raise OverflowError
    except OverflowError:
        raise OverflowError(f"f_direct_batch leaves the float range at k = "
                            f"{k}, max_part = {max_part}, M = {M}, s = {s}"
                            ) from None
    return (-1.0) ** k * q_pochhammer(q, q, k) * amp
