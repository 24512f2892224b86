"""GUE-corners reference process and statistical comparison harness.

The reference measure is on Hermitian matrices with density proportional to
e^{-Tr(X^2)/2}: real diagonal of variance 1, complex off-diagonal entries of
total variance 1 (this is the normalization under which the eigenvalue
density carries the constants (2 pi)^{-k/2} / prod_{i<1..k-1} i!).  Corners
samples collect the ascending eigenvalues of every leading principal minor:
levels 1-3 in closed form and levels r >= 4 by LAPACK.  Level 3 is clamped
into level 2's brackets (-inf, mu_1], [mu_1, mu_2], [mu_2, inf), where Cauchy
interlacing puts its exact roots, so levels 1-3 interlace exactly.

The comparison harness rescales vertex-model rows by (lambda - a M)/(d
sqrt(M)) (largest part to the last coordinate, since signatures sort
decreasingly while eigenvalues sort increasingly) and reports
Kolmogorov-Smirnov distances per coordinate and per M.  No finite-M rate is
available for the corners limit, so comparison thresholds at any fixed M are
artifact choices and the reports flag them as such.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .asymptotics import constants
from .core import ModelParams
from .measure import interlace_violations, sample_lower_rows, top_row_pmf


def corners_batch(k: int, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """n corners samples at once; entry r-1 holds an (n, r) array of ascending
    minor eigenvalues, drawn as the (n, k) diagonal, then the real and the
    imaginary part of each entry i < j in row order.  Levels 1-3 are
    closed-form and interlace exactly in floating point; levels r >= 4 use
    eigvalsh on an (n, k, k) stack built only for k > 3."""
    diag = rng.normal(size=(n, k))
    scale = math.sqrt(0.5)
    upper = {(i, j): rng.normal(scale=scale, size=n)
             + 1j * rng.normal(scale=scale, size=n)
             for i in range(k) for j in range(i + 1, k)}
    levels = [diag[:, :1]]
    if k > 1:
        levels.append(_pair_spectrum(diag[:, 0], diag[:, 1], upper[0, 1]))
    if k > 2:
        levels.append(_triple_spectrum(diag[:, :3], upper[0, 1], upper[0, 2],
                                       upper[1, 2], levels[1]))
    if k > 3:
        x = np.zeros((n, k, k), dtype=complex)
        x[:, range(k), range(k)] = diag
        for (i, j), z in upper.items():
            x[:, i, j] = z
            x[:, j, i] = np.conj(z)
        levels += [np.linalg.eigvalsh(x[:, :r, :r]) for r in range(4, k + 1)]
    return levels


def _pair_spectrum(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (n, 2) of [[a, b], [conj b, d]] as min(a, d) - t
    and max(a, d) + t, t = |b|^2/(|h| + sqrt(h^2 + |b|^2)) >= 0, 2h = a - d,
    a form free of cancellation."""
    bb = b.real ** 2 + b.imag ** 2
    h = np.abs(a - d) / 2
    den = h + np.sqrt(h * h + bb)
    t = bb / np.where(den > 0, den, 1.0)  # den = 0 only where bb = 0
    return np.stack([np.minimum(a, d) - t, np.maximum(a, d) + t], axis=1)


def _triple_spectrum(diag: np.ndarray, x01: np.ndarray, x02: np.ndarray,
                     x12: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Ascending spectra (n, 3) of the Hermitian X with diagonal diag (n, 3),
    upper entries x01, x02, x12 and leading 2 x 2 spectra pair (n, 2): the
    cubic's roots p + 2 q cos(phi + 2 pi j/3), p = tr/3, 6 q^2 = |X - p I|^2,
    cos 3 phi = det(X - p I)/(2 q^3), clamped into pair's brackets.  Only
    near a double root (probability 0 for GUE draws) does the error approach
    sqrt(eps) q."""
    p = diag.sum(axis=1) / 3
    b0, b1, b2 = (diag - p[:, None]).T
    s01, s02, s12 = (z.real ** 2 + z.imag ** 2 for z in (x01, x02, x12))
    q = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2 * (s01 + s02 + s12)) / 6)
    det = (b0 * b1 * b2 + 2 * (x01 * x12 * np.conj(x02)).real
           - b0 * s12 - b1 * s02 - b2 * s01)
    cos3 = det / (2 * np.where(q > 0, q, 1.0) ** 3)  # q = 0 only where det = 0
    phi = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3
    roots = p[:, None] + 2 * q[:, None] * np.cos(
        phi[:, None] + 2 * math.pi / 3 * np.array([1.0, 2.0, 0.0]))
    edge = np.full((len(p), 1), np.inf)
    return np.clip(roots, np.hstack([-edge, pair]), np.hstack([pair, edge]))


def hermite_density(x_values, k: int) -> float:
    """Joint density of the ascending eigenvalues of a k x k draw:
    1{x_1 < ... < x_k} (2 pi)^{-k/2} / prod_{i<k} i! *
    prod_{i<j} (x_i - x_j)^2 prod_i e^{-x_i^2/2}, at one point (a float) or
    over the last axis of an (..., k) array (an array of the leading shape)."""
    xs = np.asarray(x_values, dtype=float)
    if xs.shape[-1:] != (k,):
        raise ValueError(f"expected {k} coordinates, got shape {xs.shape}")
    out = np.full(xs.shape[:-1], (2 * math.pi) ** (-k / 2)
                  / math.prod(map(math.factorial, range(1, k))))
    for i in range(k):
        for j in range(i + 1, k):
            out *= (xs[..., i] - xs[..., j]) ** 2
        out *= np.exp(-xs[..., i] ** 2 / 2)
    out[(np.diff(xs, axis=-1) <= 0).any(axis=-1)] = 0.0
    return float(out) if out.ndim == 0 else out


def hermite_marginal_cdfs(k: int):
    """Marginal CDFs of both ascending eigenvalue coordinates at k = 2, by
    quadrature of the joint density on a grid; returns (grid, [cdf1, cdf2]).
    At k = 1 the marginal is normal_cdf."""
    if k != 2:
        raise ValueError("hermite_marginal_cdfs supports k = 2 only")
    t = np.linspace(-8.0, 8.0, 1601)
    joint = hermite_density(np.stack(np.meshgrid(t, t, indexing="ij"),
                                     axis=-1), 2)
    cdfs = []
    for pdf in (joint.sum(axis=1), joint.sum(axis=0)):
        pdf *= t[1] - t[0]
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1])
                                               * np.diff(t))])
        cdfs.append(cdf / cdf[-1])
    return t, cdfs


def normal_cdf(x):
    xs = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + np.vectorize(math.erf)(xs / math.sqrt(2.0)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# empirical distributions and KS distances


def ks_distance(points, ref_cdf, weights) -> float:
    """sup_x |F_emp(x) - F_ref(x)| for a continuous reference CDF ref_cdf,
    called once on the array of sorted points, where F_emp is the empirical
    CDF of the atoms points with the given weights (ones for samples)."""
    pts = np.asarray(points, dtype=float)
    order = np.argsort(pts)
    pts = pts[order]
    w = np.asarray(weights, dtype=float)
    if w.shape != order.shape or len(w) == 0:
        raise ValueError("weights must match a non-empty set of points")
    w = w[order]
    above = np.cumsum(w) / np.sum(w)
    steps = np.stack([np.concatenate([[0.0], above[:-1]]), above])
    ref = np.asarray(ref_cdf(pts), dtype=float)
    return float(np.max(np.abs(steps - ref[None, :])))


def ks_two_sample(a, b) -> float:
    """sup-norm distance between two empirical CDFs at each sample's distinct
    values (tie-run ends after one sort), the other sample's count from one
    in-order search of its run ends: the merged evaluation's counts and bits."""
    runs = []
    for x in (a, b):
        x = np.sort(np.asarray(x, dtype=float))
        if len(x) == 0:
            raise ValueError("ks_two_sample needs two non-empty samples")
        ends = np.append(np.flatnonzero(x[1:] != x[:-1]), len(x) - 1)
        runs.append((x[ends], np.append(0, ends + 1), len(x)))
    out = 0.0
    for (vals, counts, n), (other, other_counts, m) in (runs, runs[::-1]):
        seen = other_counts[np.searchsorted(other, vals, side="right")]
        out = max(out, np.max(np.abs(counts[1:] / n - seen / m)))
    return float(out)


# ---------------------------------------------------------------------------
# the main comparison


def rescale_parts(parts: np.ndarray, M: int, params: ModelParams) -> np.ndarray:
    """(lambda_{j-i+1} - a M)/(d sqrt(M)): reverses the part order so that
    coordinate i is the i-th smallest."""
    cst = constants(params)
    arr = np.asarray(parts, dtype=float)
    return (arr[..., ::-1] - cst.a * M) / (cst.d * math.sqrt(M))


def compare_corners_limit(k: int, M_grid, params: ModelParams, n_samples: int,
                         seed: int, pmf_tol: float = 1e-6) -> dict:
    """Rescaled vertex-model rows against GUE corners, per coordinate and M.

    k = 1 compares the exact rescaled pmf with the standard normal CDF; k = 2
    and 3 draw n_samples from the exact top-row pmf, fill lower rows from the
    six-vertex Gibbs conditional (sample_lower_rows), and compare each
    coordinate with minor eigenvalue samples by two-sample KS (plus the trace
    statistic).  Also checks that every sampled vertex-model array interlaces;
    top_row_pmf refuses k > 3.
    """
    rows = []
    violations = 0
    rng_master = np.random.default_rng(seed)
    for M in M_grid:
        pmf = top_row_pmf(k, M, params, tol=pmf_tol)
        if k == 1:
            ys = rescale_parts(np.asarray(pmf.atoms, dtype=float), M, params)
            dists = [("Y[1,1]", ks_distance(ys[:, 0], normal_cdf, pmf.probs))]
        else:
            rng = np.random.default_rng(rng_master.integers(2 ** 63))
            tops = np.asarray(pmf.atoms, dtype=np.int64)[
                pmf.sample(rng, n_samples)]
            gue_levels = corners_batch(k, n_samples, rng)
            y_top = rescale_parts(tops, M, params)
            dists = [(f"Y[{k},{i + 1}]",
                      ks_two_sample(y_top[:, i], gue_levels[k - 1][:, i]))
                     for i in range(k)]
            dists.append((f"trace[{k}]", ks_two_sample(
                y_top.sum(axis=1), gue_levels[k - 1].sum(axis=1))))
            lower = sample_lower_rows(tops, params, rng)
            violations += sum(int(interlace_violations(lo, up).sum())
                              for lo, up in zip(lower, lower[1:] + [tops]))
            for j, arr in enumerate(lower, start=1):
                ys = rescale_parts(arr, M, params)
                dists += [(f"Y[{j},{i + 1}]",
                           ks_two_sample(ys[:, i], gue_levels[j - 1][:, i]))
                          for i in range(j)]
        rows += [{"M": M, "coordinate": coord, "ks": ks,
                  "n_samples": 0 if k == 1 else n_samples, "exact": k == 1}
                 for coord, ks in dists]
    # per coordinate in M order, exact laws must fall with M and sampled
    # ones within 3x the KS noise
    band = 0.0 if k == 1 else 3.0 * 1.36 * math.sqrt(2.0 / max(n_samples, 1))
    seq = sorted((r["coordinate"], r["M"], r["ks"]) for r in rows)
    monotone = not any(c_a == c_b and ks_b > ks_a + band for (c_a, _, ks_a),
                       (c_b, _, ks_b) in itertools.pairwise(seq))
    return {"k": k, "rows": rows, "monotone_in_M": monotone,
            "interlace_violations": violations, "seed": seed,
            "threshold_note": "finite-M thresholds are artifact choices; "
                              "the weak limit carries no rate"}
