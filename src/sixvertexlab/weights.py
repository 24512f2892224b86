"""Vertex-weight kernels.

Two weight tables drive everything: the plain table w_u and the conjugated
table w^c_u.  Both depend on (q, s, u) with u the spectral parameter of a
row; with g >= 0 the nonzero entries are

    w_u(g,0; g,0)   = (1 - s q^g u)/(1 - s u)      w^c identical
    w_u(g,1; g,1)   = (u - s q^g)/(1 - s u)        w^c identical
    w_u(g,1; g+1,0) = (1 - q^{g+1})/(1 - s u)      w^c: (1 - s^2 q^g)/(1 - s u)
    w_u(g+1,0; g,1) = (1 - s^2 q^g) u/(1 - s u)    w^c: (1 - q^{g+1}) u/(1 - s u)

Throughout this package s^2 = 1/q, so s^2 q^g = q^{g-1}; writing the factors
that way makes the blocked branches (merging into / splitting from an
occupied column, g = 1) vanish exactly in floating point instead of leaving
~1e-16 residue that would pollute the transfer dynamic programming.

Weights return complex scalars even for real parameters so the same kernel
serves contour integrands with complex spectral parameter.
"""

from __future__ import annotations

from .core import (MAX_VERTEX_OCCUPANCY, ModelParams, as_parts, multiplicities,
                   q_pochhammer)


def vertex_weight_raw(i1: int, j1: int, i2: int, j2: int,
                      q: float, s: float, u: complex,
                      conjugated: bool) -> complex:
    """Weight of vertex (i1, j1; i2, j2); 0 for any nonconserving vertex."""
    if j1 not in (0, 1) or j2 not in (0, 1):
        return 0.0
    if i1 < 0 or i2 < 0 or i1 + j1 != i2 + j2:
        return 0.0
    if i1 > MAX_VERTEX_OCCUPANCY or i2 > MAX_VERTEX_OCCUPANCY:
        raise ValueError(
            f"vertical occupancy exceeds cap {MAX_VERTEX_OCCUPANCY}")
    denom = 1.0 - s * u
    if j1 == 0 and j2 == 0:
        return (1.0 - s * q ** i1 * u) / denom
    if j1 == 1 and j2 == 1:
        return (u - s * q ** i1) / denom
    if j1 == 1 and j2 == 0:
        # i2 = i1 + 1; s^2 q^{i1} = q^{i1 - 1}
        if conjugated:
            return (1.0 - q ** (i1 - 1)) / denom
        return (1.0 - q ** (i1 + 1)) / denom
    # j1 == 0 and j2 == 1, i1 = i2 + 1
    if conjugated:
        return (1.0 - q ** (i2 + 1)) * u / denom
    return (1.0 - q ** (i2 - 1)) * u / denom


def six_vertex_weights(params: ModelParams) -> tuple[float, ...]:
    """The six positive weights (w1..w6) of the ferroelectric model,

        w1 = w(0,0;0,0), w2 = w(1,1;1,1), w3 = w(1,0;1,0),
        w4 = w(0,1;0,1), w5 = w(1,0;0,1), w6 = w(0,1;1,0),

    in the sign-flipped form that makes all of them strictly positive for
    u > s > 1 (denominators use us - 1 rather than 1 - su), which
    ModelParams guarantees."""
    q, s, u = params.q, params.s, params.u
    den = u * s - 1.0
    w1 = 1.0
    w2 = (u - 1.0 / s) / den
    w3 = (u / s - 1.0) / den
    w4 = (u - s) / den
    w5 = u * (1.0 / q - 1.0) / den          # u (s^2 - 1)/(us - 1)
    w6 = (1.0 - q) / den                    # (1 - s^{-2})/(us - 1)
    return w1, w2, w3, w4, w5, w6


def conjugation_factor(sig, params: ModelParams) -> float:
    """c(lambda) = prod_{k>=0} (s^2; q)_{n_k} / (q; q)_{n_k} over the
    multiplicity blocks of lambda.

    With s^2 = 1/q every value held by two or more parts contributes a zero
    factor, so the plain/conjugated conversion is only informative for
    signatures without repeated parts (each block contributes
    (1 - s^2)/(1 - q) = -1/q).
    """
    parts = as_parts(sig)
    if parts and min(parts) < 0:
        raise ValueError("conjugation factor requires a nonnegative signature")
    q = params.q
    out = 1.0
    for n_k in multiplicities(parts).values():
        out *= q_pochhammer(1.0 / q, q, n_k) / q_pochhammer(q, q, n_k)
    return out
