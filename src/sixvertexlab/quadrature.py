"""The one contour-quadrature engine behind every k-fold integral.

Every contour integral in the package has the form

    oint..oint prod_{a<b} (z_a - z_b)/(z_a - q z_b) prod_i phi_i(z_i) dz_i/(2 pi i)

for k <= 3, and is evaluated in three parts:

* a node family giving nodes z and weights w for oint (.) dz/(2 pi i):
  the periodic trapezoid on a zero-centered circle (circle_nodes; geometric
  convergence for analytic integrands, Trefethen-Weideman, SIAM Rev. 2014),
  or Gauss-Legendre on the composite contour through the critical point
  (composite_nodes);
* one tensor-product kernel (tensor_integral) over per-axis integrand
  families, so that a whole exponent window is integrated at once;
* one node-doubling driver (adaptive) with one stopping rule.

This module imports nothing from the package, so every route that uses it
stays independent of the transfer engines it is checked against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# composite contour: Gauss-Legendre nodes on the segment and on the arc at the
# first evaluation; both double together, so the arc keeps this share
SEGMENT_NODES = 129
ARC_NODES = 33
COMPOSITE_MAX_NODES = 1 << 13


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to converge; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(f"{message}: {diagnostics}")
        self.diagnostics = diagnostics


def circle_nodes(R: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n equispaced nodes on the circle |z| = R and their weights z/n for
    oint (.) dz/(2 pi i)."""
    z = R * np.exp(2j * np.pi * np.arange(n) / n)
    return z, z / n


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def composite_nodes(u: float, M: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights for oint_C (.) dz/(2 pi i) on the contour through u:
    the vertical segment from u - 2iu to u + 2iu, then the left half-circle of
    radius 2u about u.

    The segment gets n Gauss-Legendre nodes in tau, with y = tan(tau)/sqrt(M)
    so that the node density is proportional to 1/(1 + M y^2) and clusters
    near u; the arc, at constant distance 2u from u, gets
    n * ARC_NODES / SEGMENT_NODES nodes uniform in angle.  Orientation is
    positive (segment upward, then the half-circle through u - 2u back down).
    """
    root_m = math.sqrt(max(M, 1))
    tau_max = math.atan(2 * u * root_m)
    x_leg, w_leg = _leggauss(n)
    tau = tau_max * x_leg
    y = np.tan(tau) / root_m
    z_seg = u + 1j * y
    dz_seg = 1j * (1 + np.tan(tau) ** 2) / root_m * (tau_max * w_leg)

    x_leg, w_leg = _leggauss(n * ARC_NODES // SEGMENT_NODES)
    theta = 0.5 * np.pi + 0.5 * np.pi * (x_leg + 1)  # pi/2 .. 3 pi/2
    z_arc = u + 2 * u * np.exp(1j * theta)
    dz_arc = 2 * u * 1j * np.exp(1j * theta) * (0.5 * np.pi * w_leg)

    z = np.concatenate([z_seg, z_arc])
    wts = np.concatenate([dz_seg, dz_arc]) / (2j * np.pi)
    return z, wts


def tensor_integral(cols, z: np.ndarray, q: float) -> np.ndarray:
    """out[m_1, ..., m_k] = sum over nodes n_1..n_k of
    prod_{a<b} (z_a - z_b)/(z_a - q z_b) prod_i cols[i][m_i, n_i],

    where cols[i] is axis i's family of integrands already multiplied by the
    node weights, shape (m_i, len(z)).  The k = 3 branch contracts the first
    axis one member at a time, in O(len(z)^3) flops and O(len(z)^2) memory."""
    k = len(cols)
    if k == 1:
        return cols[0].sum(axis=1)
    kern = (z[:, None] - z[None, :]) / (z[:, None] - q * z[None, :])
    if k == 2:
        return cols[0] @ kern @ cols[1].T
    if k == 3:
        c1, c2, c3 = cols
        out = np.empty((len(c1), len(c2), len(c3)), dtype=complex)
        for i1, row in enumerate(c1):
            inner = (kern.T * row) @ kern      # C(n2, n3)
            out[i1] = c2 @ (kern * inner) @ c3.T
        return out
    raise ValueError(f"contour quadrature supports k <= 3, got k = {k}")


def adaptive(evaluate, n0: int, max_nodes: int, tol: float, atol: float = 0.0):
    """evaluate(n) at n = n0, 2 n0, 4 n0, ... <= max_nodes until two successive
    values differ by max|change| < max(tol * max|value|, atol); returns the
    later value.  Raises QuadratureError with the last node count, the last
    change and tol when no doubling meets the rule."""
    if not 1 <= n0 <= max_nodes:
        raise ValueError(f"need 1 <= n0 <= max_nodes, got {n0}, {max_nodes}")
    n, prev, last_change = n0, None, math.inf
    while n <= max_nodes:
        value = evaluate(n)
        if prev is not None:
            last_change = float(np.max(np.abs(value - prev)))
            if last_change < max(tol * float(np.max(np.abs(value))), atol):
                return value
        prev = value
        n *= 2
    raise QuadratureError("contour quadrature did not converge",
                          {"nodes": n // 2, "last_change": last_change,
                           "tol": tol})
