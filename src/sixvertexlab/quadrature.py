"""The one contour-quadrature engine behind every k-fold integral.

Every contour integral in the package has the form

    oint..oint prod_{a<b} (z_a - z_b)/(z_a - q z_b) prod_i phi_i(z_i) dz_i/(2 pi i)

for k <= 3, and is evaluated in three parts:

* a node family giving nodes z and weights w for oint (.) dz/(2 pi i):
  the periodic trapezoid on a zero-centered circle (circle_nodes; geometric
  convergence for analytic integrands, Trefethen-Weideman, SIAM Rev. 2014),
  or Gauss-Legendre on the composite contour through the critical point
  (composite_nodes);
* one tensor-product kernel (tensor_integral) over one integrand per axis
  for single integrals, and one window kernel (window_integral)
  that integrates a whole exponent window at once, at its strict entries
  only, packed so that a wider window appends;
* one node-doubling driver (adaptive) with one stopping rule.

The cross kernel K = (z_a - z_b)/(z_a - q z_b) is a rank-one update of a
Cauchy matrix on the point sets C and qC, so its singular values decay
geometrically (Beckermann-Townsend, SIAM J. Matrix Anal. Appl. 38, 2017):
on the composite nodes its rank at RANK_RTOL is about 60 whatever the node
count.  kernel_factor finds that range from a Gaussian sketch of width p
(Halko-Martinsson-Tropp, SIAM Rev. 53, 2011) in O(N^2 p) work, not the
dense SVD's O(N^3), and certifies max|K - U V|; near q = 1, where no sketch
narrower than N suffices, it takes the exact factor (K, I).  A k = 3
exponent window of W members on N nodes then contracts through K ~ U V,
and only over its C(W, 3) strict entries, which are all it stores; its rows
are conjugate on the nodes' conjugate pairs, so one side needs half the
nodes: one sketch per node set plus O(W (N r^2 + (r + W) N^2 / 2)), against
O(W (N^3 + W N^2)) for the full kernel.  Single k = 3 integrals keep the
full kernel, where a factor would cost more than the product it saves.

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
# kernel_factor keeps the singular values above RANK_RTOL * sigma_0 and
# certifies max|K - U V| <= FACTOR_TOL * max|K|; its Gaussian sketch grows
# SKETCH_WIDTH columns at a time until its last SKETCH_MARGIN columns each
# leave a residual below SKETCH_RTOL times the first column's
RANK_RTOL = 1e-15
SKETCH_RTOL = 1e-14
FACTOR_TOL = 1e-13
SKETCH_WIDTH = 96
SKETCH_MARGIN = 16


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


def conjugate_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (upper, lower, fixed) on composite_nodes(u, M, n): the
    upper-half nodes, their conjugates and the self-conjugate nodes, by the
    layout (segment node i pairs with n - 1 - i, arc node j with m - 1 - j
    for m arc nodes), not by the sign of z.imag, which is 1e-16 at -u."""
    m = n * ARC_NODES // SEGMENT_NODES
    seg, arc = np.arange(n - n // 2, n), n + np.arange(m // 2)
    return (np.concatenate([seg, arc]),
            np.concatenate([n - 1 - seg, 2 * n + m - 1 - arc]),
            np.array([n // 2] * (n % 2) + [n + m // 2] * (m % 2), dtype=int))


def cross_kernel(z: np.ndarray, q: float) -> np.ndarray:
    """K[a, b] = (z_a - z_b)/(z_a - q z_b) on the nodes z, divided 256 rows
    at a time: each entry is the same one division, and no second N x N
    array (the divisor) is held beside the kernel."""
    kern = z[:, None] - z[None, :]
    for i in range(0, len(z), 256):
        kern[i:i + 256] /= z[i:i + 256, None] - q * z[None, :]
    return kern


def kernel_factor(kern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U (N, r) and V (r, N) with max|K - U V| <= FACTOR_TOL max|K| for the
    N x N cross kernel kern, by a randomized range finder.  The sketch
    K Omega of a fixed-seed Gaussian Omega grows SKETCH_WIDTH columns at a
    time; each block is orthogonalized against the basis Q so far and then
    by its own QR, twice (block Gram-Schmidt; the first block once), and
    the product of the R diagonals is each column's residual off the
    columns before it.  Once the last SKETCH_MARGIN residuals are below
    SKETCH_RTOL times the first, the SVD of the small Q^H K, truncated to
    its singular values above RANK_RTOL * sigma_0, gives the factor if the
    bound holds; if not, the sketch grows on.  A sketch that would reach
    N columns gives the exact factor (K, I) instead.  Costs O(N^2 p) for a
    final width p < N, and the fixed seed gives the same bits for the same
    kern."""
    n = len(kern)
    rng = np.random.default_rng(0)
    basis, resid = np.zeros((n, 0), dtype=complex), np.zeros(0)
    bound = FACTOR_TOL * np.max(np.abs(kern))
    while basis.shape[1] + SKETCH_WIDTH < n:
        block, gain = kern @ rng.standard_normal((n, SKETCH_WIDTH)), 1.0
        for _ in range(2 if basis.shape[1] else 1):   # nothing to lose yet
            block -= basis @ (basis.conj().T @ block)
            block, tri = np.linalg.qr(block)
            gain = gain * np.abs(np.diag(tri))
        basis = np.hstack([basis, block])
        resid = np.concatenate([resid, gain])
        if np.any(resid[-SKETCH_MARGIN:] > SKETCH_RTOL * resid[0]):
            continue
        u, sigma, vh = np.linalg.svd(basis.conj().T @ kern,
                                     full_matrices=False)
        r = int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))
        U, V = basis @ (u[:, :r] * sigma[:r]), vh[:r].copy()
        err = max(np.max(np.abs(kern[i:i + 256] - U[i:i + 256] @ V))
                  for i in range(0, n, 256))
        if err <= bound:
            return U, V
    return kern, np.eye(n)


def tensor_integral(rows: np.ndarray, z: np.ndarray, q: float) -> complex:
    """sum over nodes n_1..n_k of
    prod_{a<b} (z_a - z_b)/(z_a - q z_b) prod_i rows[i, n_i],

    where rows[i] (shape (k, len(z))) is axis i's integrand already
    multiplied by the node weights, as a Python complex.  The k = 3 branch
    costs O(len(z)^3) flops and O(len(z)^2) memory."""
    k = len(rows)
    if k == 1:
        return rows.sum(axis=1).item()
    kern = cross_kernel(z, q)
    if k == 2:
        return (rows[:1] @ kern @ rows[1:].T).item()
    if k == 3:
        inner = (kern.T * rows[0]) @ kern      # C(n2, n3)
        return (rows[1:2] @ (kern * inner) @ rows[2:].T).item()
    raise ValueError(f"contour quadrature supports k <= 3, got k = {k}")


def window_integral(rows: np.ndarray, k: int, done: int, kern: np.ndarray,
                    factor, pairs, size: float) -> np.ndarray:
    """The real parts of tensor_integral(rows[[i1, ..., ik]], ...) over the
    strict index tuples i1 > ... > ik with i1 >= done, packed in
    lexicographic order of (i1, ..., ik), so that a window widened by more
    rows only appends.

    rows is one exponent window of W members, already multiplied by the node
    weights, kern = cross_kernel(z, q) on its nodes (unused at k = 1),
    factor = kernel_factor(kern) and pairs = conjugate_pairs(n) (k = 3 only).
    At k = 3 the rows must be conjugate on the pairs and real on the fixed
    nodes.  Exponent rows exp(l L_s + M L_v) are so to a rounding of about
    eps |l L_s + M L_v| max|rows|, and size bounds that exponent over the
    rows (0 for rows built otherwise); a mismatch past
    (1e-12 + 16 eps size) max|rows| raises ValueError.
    The outer node sum's terms at a pair are then conjugate, so it runs over
    the upper nodes twice and the fixed ones once, and its real part is one
    real GEMM.  Member i1 takes C(i1, 2) entries at
    O(N r^2 + (r + i1) N^2 / 2) for N nodes and rank r, half the full node
    sum, in place of O(N^3 + W N^2) for the full kernel."""
    if k == 1:
        return rows[done:].sum(axis=1).real
    if k == 2:
        full = rows[done:] @ kern @ rows.T
        return full[np.tril_indices(len(full), done - 1, len(rows))].real
    if k != 3:
        raise ValueError(f"contour quadrature supports k <= 3, got k = {k}")
    (U, V), (upper, lower, fixed) = factor, pairs
    half = np.concatenate([upper, fixed])
    rows_half = rows[:, half]
    mismatch = np.max(np.abs(rows[:, np.r_[lower, fixed]] - rows_half.conj()))
    slack = 1e-12 + 16 * np.finfo(float).eps * size
    if mismatch > slack * np.max(np.abs(rows)):
        raise ValueError(f"rows not conjugate on the pairs: {mismatch:.3e}")
    twice = np.r_[np.full(len(upper), 2.0), np.ones(len(fixed))][:, None]
    kern_half, v_half = kern[half] * twice, V[:, half].T.copy()
    rows_ri = rows.conj().view(np.float64)   # Re, -Im interleaved per node
    start = math.comb(done, 3)   # member i1's entries start at C(i1, 3)
    out = np.empty(math.comb(len(rows), 3) - start)
    for i1 in range(max(done, 2), len(rows)):   # i1 >= 2 has strict entries
        inner = v_half @ (((U.T * rows[i1]) @ U) @ V)
        left = rows_half[:i1] @ (kern_half * inner)
        block = left.view(np.float64) @ rows_ri[:i1 - 1].T
        out[math.comb(i1, 3) - start:math.comb(i1 + 1, 3) - start] = (
            block[np.tril_indices(i1, -1, i1 - 1)])
    return out


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
