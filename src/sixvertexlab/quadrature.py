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
  for single integrals, and, for a whole exponent window at once at its
  strict entries only, packed so that a wider window appends, one window
  kernel (window_integral, k <= 2) and one window core (WindowCore, k = 3);
  a k = 2 single integral holds about 2 KERNEL_COLUMNS N complex numbers
  of the kernel, a k = 3 one still O(N^2);
* one node-doubling driver (adaptive) with one stopping rule.

The cross kernel K = (z_a - z_b)/(z_a - q z_b) is a rank-one update of a
Cauchy matrix on the point sets C and qC, so its singular values decay
geometrically (Beckermann-Townsend, SIAM J. Matrix Anal. Appl. 38, 2017):
on the composite nodes its rank at RANK_RTOL is about 60 whatever the node
count.  kernel_factor finds that range from a Gaussian sketch of width p
(Halko-Martinsson-Tropp, SIAM Rev. 53, 2011) in O(N^2 p) work, not the
dense SVD's O(N^3), and certifies max|K - U V|; near q = 1, where the
sketch would need nearly N columns, it takes the exact factor (K, I).

The exponent rows g(z) exp(l L_s(z)) of a window are Vandermonde-like in l
and localized near the critical point, so they too have low rank (the same
bound): about 30 of 50-80 rows at perfbench's k = 3 laws, and 60 of 390 at
M = 300, at any node count.  WindowCore picks a skeleton of rho of a
window's rows, contracts them into a real rho x rho x rho core through
K ~ U V and over half the nodes (the rows are conjugate on the nodes'
conjugate pairs), and expands every strict entry from it: one core costs
O(rho (N r^2 + (r + rho) N^2 / 2)), once per node set and core size, and
the expansion O(W^3 rho / 6), against O(W (N r^2 + (r + W) N^2 / 2)) for
the W members contracted one by one, and O(W (N^3 + W N^2)) for the full
kernel.  Single k = 3 integrals keep the full kernel, where a factor would
cost more than the product it saves.

This module imports nothing from the package, so every route that uses it
stays independent of the transfer engines it is checked against.
"""

from __future__ import annotations

import math
import threading

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
# past this share of N columns a dense SVD costs less than the sketch, so a
# sketch whose residuals' decay so far puts the width it needs there stops
SKETCH_MAX_SHARE = 2 / 3
# WindowCore picks skeleton rows until no row is left farther than
# EXPONENT_RTOL times the largest row norm from their span, or than the
# rows' rounding: their singular values level off near eps |l L_s + M L_v|
# / 600 of it (display point, M = 100 to 1,000), and picks below that level
# take coefficients that grow past 10 and lose the law's last digits
EXPONENT_RTOL = 1e-15
# WindowCore.entries takes a member's strict entries this many rows at a
# time, so it computes little more than the half of its square it keeps
ENTRY_ROWS = 64
# a k = 2 single integral pushes its first row through the cross kernel
# this many columns at a time, each block divided in place in one buffer:
# with its divisor 2 KERNEL_COLUMNS N complex numbers, 8 MiB at 4,096
# nodes; at 256-2,048 nodes (one BLAS thread) widths of 32 to 256 took
# the full kernel's time or less, so memory sets the width
KERNEL_COLUMNS = 64
# window_integral takes a k = 2 window's new rows this many at a time, so
# neither its W' x W product nor its W' x N left product exists whole;
# every window of perfbench and of the CLI's sample is one block
WINDOW_ROWS = 256


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


_RULES, _RULES_LOCK = {}, threading.Lock()   # n -> read-only (x, w)


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    with _RULES_LOCK:   # once per process: other threads wait for the rule
        if n not in _RULES:
            x, w = np.polynomial.legendre.leggauss(n)
            x.flags.writeable = w.flags.writeable = False
            _RULES[n] = x, w
        return _RULES[n]


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


def _kernel_block(out: np.ndarray, za: np.ndarray, zb: np.ndarray,
                  q: float) -> np.ndarray:
    """out[a, b] = (za_a - zb_b)/(za_a - q zb_b), each cross-kernel entry's
    one division, in place beside one divisor of out's shape."""
    np.subtract(za[:, None], zb[None, :], out=out)
    out /= za[:, None] - q * zb[None, :]
    return out


def cross_kernel(z: np.ndarray, q: float) -> np.ndarray:
    """K[a, b] = (z_a - z_b)/(z_a - q z_b) on the nodes z, divided 256 rows
    at a time: each entry is the same one division, and no second N x N
    array (the divisor) is held beside the kernel."""
    kern = np.empty((len(z), len(z)), dtype=complex)
    for i in range(0, len(z), 256):
        _kernel_block(kern[i:i + 256], z[i:i + 256], z, q)
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
    N columns gives the exact factor (K, I) instead, as does one whose
    residuals, decaying at their mean rate per column so far, would reach
    SKETCH_RTOL only past SKETCH_MAX_SHARE N columns (near q = 1).  Costs
    O(N^2 p) for a final width p < N, and the fixed seed gives the same
    bits for the same kern."""
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
            decay = np.log(resid[-1] / resid[0]) / (len(resid) - 1)
            need = (len(resid) + SKETCH_MARGIN
                    + np.log(SKETCH_RTOL * resid[0] / resid[-1]) / decay
                    if decay < 0 else math.inf)
            if need > SKETCH_MAX_SHARE * n:
                break
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
    multiplied by the node weights, as a Python complex.  The k = 2 branch
    streams the kernel KERNEL_COLUMNS columns at a time, never N x N; each
    entry is cross_kernel's one division and each pushed column one BLAS
    sum, so on one BLAS thread it has the bits of rows[:1] @
    cross_kernel(z, q) @ rows[1:].T unless a last one-column block goes to
    numpy's dot.  The k = 3 branch costs O(len(z)^3) flops and O(len(z)^2)
    memory."""
    k = len(rows)
    if k == 1:
        return rows.sum(axis=1).item()
    if k == 2:
        left = np.empty((1, len(z)), dtype=complex)
        block = np.empty((len(z), KERNEL_COLUMNS), dtype=complex)
        for j in range(0, len(z), KERNEL_COLUMNS):
            cols = z[j:j + KERNEL_COLUMNS]
            left[:, j:j + len(cols)] = rows[:1] @ _kernel_block(
                block[:, :len(cols)], z, cols, q)
        return (left @ rows[1:].T).item()
    kern = cross_kernel(z, q)
    if k == 3:
        inner = (kern.T * rows[0]) @ kern      # C(n2, n3)
        return (rows[1:2] @ (kern * inner) @ rows[2:].T).item()
    raise ValueError(f"contour quadrature supports k <= 3, got k = {k}")


def window_integral(rows: np.ndarray, k: int, done: int,
                    kern: np.ndarray) -> np.ndarray:
    """The real parts of tensor_integral(rows[[i1, ..., ik]], ...) over the
    strict index tuples i1 > ... > ik with i1 >= done, packed in
    lexicographic order of (i1, ..., ik), so that a window widened by more
    rows only appends; k <= 2.  rows is one exponent window, already
    multiplied by the node weights, and kern = cross_kernel(z, q) on its
    nodes (unused at k = 1).  At k = 2 the new rows i1 go through the
    kernel WINDOW_ROWS at a time, each block filling its strict entries
    of one packed output.  A k = 3 window goes through WindowCore."""
    if k == 1:
        return rows[done:].sum(axis=1).real
    if k == 2:
        start = math.comb(done, 2)   # member i1's entries start at C(i1, 2)
        out = np.empty(math.comb(len(rows), 2) - start)
        for a in range(done, len(rows), WINDOW_ROWS):
            b = min(a + WINDOW_ROWS, len(rows))
            part = rows[a:b] @ kern @ rows.T
            out[math.comb(a, 2) - start:math.comb(b, 2) - start] = (
                part.real[np.tri(b - a, len(rows), a - 1, dtype=bool)])
        return out
    raise ValueError(f"window_integral supports k <= 2, got k = {k}")


class WindowCore:
    """The k = 3 window integrals of one set of exponent rows, through a
    skeleton of the rows and one real core.

    The rows must be conjugate on the pairs and real on the fixed nodes.
    Exponent rows exp(l L_s + M L_v) are so to a rounding of about
    eps |l L_s + M L_v| max|rows|, and size bounds that exponent over the
    rows (0 for rows built otherwise); a mismatch past
    (1e-12 + 16 eps size) max|rows| raises ValueError.

    The skeleton is picked from the rows' values on the upper and fixed
    nodes, as reals, by pivoted Gram-Schmidt (an interpolative
    decomposition; Cheng-Gimbutas-Martinsson-Rokhlin, SIAM J. Sci. Comput.
    26, 2005): the row farthest from the span of those picked joins them
    until none is farther than EXPONENT_RTOL times the largest row norm,
    or than the rows' own rounding, eps size / 256 of it.  With Q the
    skeleton rows and P real, max|R - P Q| <= FACTOR_TOL max|R| must hold
    on those nodes, or the constructor raises QuadratureError.

    The core C[a, b, c] = Re sum Q_a(z1) Q_b(z2) Q_c(z3) K12 K13 K23 is the
    window integral of skeleton rows, contracted through the kernel factor
    K ~ U V and over half the nodes, so its entries carry the rounding of
    a direct contraction of localized rows; orthonormal singular vectors
    in their place spread about eps max|I| over every entry, 4e-13 of
    max p off the direct law at q = 0.7, M = 3.  entries() expands the
    core along P[i1], P[i2], P[i3], so an entry has the same bits whichever
    window asks for it.  A wider window needs a new core over more rows."""

    def __init__(self, rows: np.ndarray, size: float, kern: np.ndarray,
                 factor, pairs):
        (U, V), (upper, lower, fixed) = factor, pairs
        half = np.concatenate([upper, fixed])
        rows_half = rows[:, half]
        mismatch = np.max(np.abs(rows[:, np.r_[lower, fixed]]
                                 - rows_half.conj()))
        slack = 1e-12 + 16 * np.finfo(float).eps * size
        if mismatch > slack * np.max(np.abs(rows)):
            raise ValueError(f"rows not conjugate on the pairs: {mismatch:.3e}")
        real = np.ascontiguousarray(rows_half).view(np.float64)  # Re, Im
        norm = float(np.linalg.norm(real, axis=1).max())
        goal = max(EXPONENT_RTOL, np.finfo(float).eps * size / 256) * norm
        left, basis, picks = real.copy(), np.zeros((0, real.shape[1])), []
        while len(picks) < len(rows):   # pivoted Gram-Schmidt on the rows
            norms = np.linalg.norm(left, axis=1)
            pick = int(np.argmax(norms))
            if norms[pick] <= goal:
                break
            vec = left[pick] - (left[pick] @ basis.T) @ basis
            vec /= np.linalg.norm(vec)
            left -= np.outer(left @ vec, vec)
            left[pick] = 0.0
            basis = np.vstack([basis, vec])
            picks.append(pick)
        coef = real @ basis.T             # rows on the basis; skeleton rows
        P = np.linalg.solve(np.tril(coef[picks]).T, coef.T).T   # triangular
        err = np.max(np.abs(rows_half - P @ rows_half[picks]))
        bound = FACTOR_TOL * float(np.max(np.abs(rows)))
        if not err <= bound:
            raise QuadratureError("exponent factor not certified",
                                  {"error": float(err), "bound": bound,
                                   "rank": len(picks)})
        Q = rows[picks]
        twice = np.r_[np.full(len(upper), 2.0), np.ones(len(fixed))][:, None]
        kern_half, q_half = kern[half] * twice, rows_half[picks]
        q_ri = Q.conj().view(np.float64)   # Re, -Im interleaved per node
        v_half = V[:, half].T.copy()
        core = np.empty((len(Q),) * 3)
        for a, row in enumerate(Q):
            inner = v_half @ (((U.T * row) @ U) @ V)          # (z2, z3)
            left = q_half @ (kern_half * inner)
            core[a] = left.view(np.float64) @ q_ri.T
        self.P = np.ascontiguousarray(P)   # C order: the expansion's bits
        self.core = core.reshape(len(Q), -1)

    def entries(self, done: int, width: int) -> np.ndarray:
        """The real window integrals at the strict (i1, i2, i3), i1 > i2 >
        i3, with done <= i1 < width <= len(P), packed as window_integral
        packs them.  Member i1 contracts the core with P[i1] and then
        P[i2], and takes its C(i1, 2) entries ENTRY_ROWS rows i2 at a time,
        each against the P[i3] it needs: O(rho^3 + i1 rho^2 + i1^2 rho / 2),
        so O(W^3 rho / 6) in all for W >> rho."""
        start = math.comb(done, 3)   # member i1's entries start at C(i1, 3)
        out = np.empty(math.comb(width, 3) - start)
        rho = len(self.core)
        for i1 in range(max(done, 2), width):   # i1 >= 2 has strict entries
            mid = (self.P[i1] @ self.core).reshape(rho, rho)
            left = self.P[:i1] @ mid                         # (i2, gamma)
            at = math.comb(i1, 3) - start
            for a in range(0, i1, ENTRY_ROWS):   # rows a..b-1 need i3 < b - 1
                b = min(a + ENTRY_ROWS, i1)
                out[at + math.comb(a, 2):at + math.comb(b, 2)] = (
                    left[a:b] @ self.P[:b - 1].T)[np.tri(b - a, b - 1, a - 1,
                                                         dtype=bool)]
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
