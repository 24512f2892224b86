import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sixvertexlab import boundary, checks, symfunc
from sixvertexlab.boundary import (Gc_contour, QuadratureError, default_radius,
                                   f_contour, f_direct, f_direct_batch)
from sixvertexlab.core import q_pochhammer


def f_literal(lam, v, M, p):
    """Term-by-term boundary sum with the skew transfer as oracle."""
    k = len(lam)
    tot = 0.0
    for nu in itertools.combinations(range(lam[0], 0, -1), k):
        g = symfunc.Gc_eval(lam, nu, (v,) * M, p)
        tot += (-p.s) ** sum(nu) * complex(g).real
    return (-1) ** k * q_pochhammer(p.q, p.q, k) * tot


def test_f_zero_cases(params):
    assert f_direct((3, 0), 0.25, 4, params) == 0.0
    assert f_direct((4, 4), 0.25, 4, params) == 0.0
    assert f_contour((4, 4, 1), 0.25, 4, params) == 0.0  # c(lam) vanishes


def test_f_direct_matches_literal_sum(params):
    for lam, M in [((2,), 1), ((2,), 2), ((4, 2), 3), ((5, 3), 5),
                   ((4, 3, 1), 2)]:
        assert f_direct(lam, params.v, M, params) == pytest.approx(
            f_literal(lam, params.v, M, params), rel=1e-11)


def test_f_contour_matches_direct(params):
    for lam, M in [((2,), 2), ((5,), 7), ((3, 1), 4), ((6, 2), 10)]:
        fc = f_contour(lam, params.v, M, params, tol=1e-10)
        fd = f_direct(lam, params.v, M, params)
        assert fc == pytest.approx(fd, rel=1e-8)


def test_f_contour_radius_independence(params):
    lam, M = (4, 2), 6
    s, v = params.s, params.v
    lo_r = s + 0.25 * (1 / v - s)
    hi_r = s + 0.75 * (1 / v - s)
    a = f_contour(lam, v, M, params, lo_r, tol=1e-10)
    b = f_contour(lam, v, M, params, hi_r, tol=1e-10)
    assert a == pytest.approx(b, rel=1e-9)


def test_f_sign_pattern_and_weight_positivity(params):
    # Raw f alternates as (-1)^{|lam| + k}; the full path weight
    # F_lam([u]^k) f(lam) is what is nonnegative.
    lams = [(1,), (2,), (3,), (3, 1), (4, 1), (4, 3, 1)]
    bad, _, _, signs = checks.total_weight_signs(params, lams, 3)
    assert bad == 0, signs


def test_Gc_contour_matches_transfer(params):
    one_row = [((m,), (params.v,)) for m in (1, 3, 6)]
    assert checks.Gc_contour_vs_transfer(params, one_row)[2] < 1e-8
    two_rows = [((2, 1), (0.25, 0.2))]
    assert checks.Gc_contour_vs_transfer(params, two_rows)[2] < 1e-7


def test_Gc_contour_rejects_zero_part(params):
    with pytest.raises(ValueError):
        Gc_contour((2, 0), (0.25, 0.2), params)


def test_contour_result_is_real(params):
    val = f_contour((3, 1), params.v, 5, params, tol=1e-10)
    assert isinstance(val, float)


def test_default_radius_band(params):
    r = default_radius(params, (params.v,))
    assert params.s < r < 1 / params.v
    with pytest.raises(ValueError):
        f_contour((2,), params.v, 2, params, params.s * 0.9)


def test_quadrature_failure_diagnostics(params, monkeypatch):
    # giving up at the real budget of 1 << 12 nodes would take seven node
    # counts up to 4,096, so the budget is cut to 8 -> 16 nodes
    monkeypatch.setattr(boundary, "CIRCLE_NODES", 8)
    monkeypatch.setattr(boundary, "CIRCLE_MAX_NODES", 16)
    with pytest.raises(QuadratureError) as exc:
        f_contour((6, 2), params.v, 10, params, tol=1e-14)
    assert "nodes" in exc.value.diagnostics


def test_circle_route_refuses_at_its_node_cap():
    # at this random point the outer circle of f_radius_independence never
    # meets tol = 1e-10 (from 1,024 nodes on its last change levels off at
    # 3-7e-10 |f|): node doubling stops at 4,096 nodes with the typed error,
    # whose k = 2 integral streams its kernel 64 columns (4 MiB) at a time,
    # and never reaches 16,384 nodes, whose full kernel would take 4 GiB
    p = checks.random_points(7, 6)[0]
    outer = p.s + 0.75 * (1 / p.v - p.s)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError) as exc:
            f_contour((5, 1), p.v, 12, p, outer, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.diagnostics["nodes"] == 4096
    assert peak < 512 * 2 ** 20, peak


def test_circle_route_refusal_holds_no_square_kernel():
    # the same refusal at 4,096 nodes peaks under 16 MiB: the k = 2
    # integral never holds its 256 MiB N x N kernel
    p = checks.random_points(7, 6)[0]
    outer = p.s + 0.75 * (1 / p.v - p.s)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError) as exc:
            f_contour((5, 1), p.v, 12, p, outer, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.diagnostics["nodes"] == 4096
    assert peak < 16 * 2 ** 20, peak


def test_spectral_convergence_of_nodes(params):
    # periodic-trapezoid error on the circle falls geometrically in node count
    from sixvertexlab.quadrature import circle_nodes, tensor_integral
    from sixvertexlab.weights import conjugation_factor

    lam, M = (3, 1), 4
    s, q, v = params.s, params.q, params.v
    R = default_radius(params, (v,))
    exact = f_direct(lam, v, M, params)
    pref = conjugation_factor(lam, params) * q_pochhammer(q, q, len(lam))

    def phi(z):
        col = ((1.0 - q * z * v) / (1.0 - z * v)) ** M
        ratio = (1.0 - s * z) / (z - s)
        base = col / (-s * (1.0 - s * z))
        return np.stack([base * ratio ** p for p in lam])

    errs = []
    for n in (16, 32, 64, 128):
        z, wts = circle_nodes(R, n)
        val = tensor_integral(phi(z) * wts, z, q) * pref
        errs.append(abs(val - exact) / abs(exact))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    # geometric: each doubling should gain more than a constant factor
    assert errs[3] < 1e-12 and errs[1] < 1e-2


def test_f_direct_batch_seeds_with_python_powers(params):
    # with no rows the table is the prefactor times the start amplitude
    # (-s)^|nu|, the same Python float power, bit for bit
    s, q = params.s, params.q
    for k, max_part in [(1, 9), (2, 8), (3, 7)]:
        tab = f_direct_batch(k, max_part, 0, params)
        for lam in itertools.combinations(range(max_part, 0, -1), k):
            assert tab[lam] == ((-1.0) ** k * q_pochhammer(q, q, k)
                                * (-s) ** sum(lam))


def test_f_direct_batch_refuses_past_the_float_range(params, monkeypatch):
    # at the display point, k = 1: from max_part = 1,208 a row's t^gap table
    # leaves the float range (|t| = 1.80), from about 2,050 the start table
    # (-s)^e too; each raises the one OverflowError naming the sizes, with no
    # warning and no inf or nan out, and before any row is applied
    assert np.isfinite(f_direct_batch(1, 1200, 1, params)).all()

    def no_row(*args):
        raise AssertionError("a row was built or applied past the float range")

    monkeypatch.setattr(symfunc.StrictRow, "apply", no_row)
    monkeypatch.setattr(boundary, "StrictRow", no_row)
    for max_part, M in ((1208, 1), (1300, 5), (2040, 1), (2050, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(
                    f"k = 1, max_part = {max_part}, M = {M}, s = {params.s}")):
                f_direct_batch(1, max_part, M, params)


@pytest.mark.parametrize("k, max_part, M",
                         [(1, 30, 1), (1, 30, 20), (2, 20, 1), (2, 20, 20)])
def test_f_direct_batch_builds_one_row(params, count_strict_rows, k,
                                       max_part, M):
    # the M conjugated rows share one operator, whose tables are built once
    counts = count_strict_rows(boundary)
    f_direct_batch(k, max_part, M, params)
    assert counts == {"built": 1, "applied": M, "weights": 5}


def test_f_direct_batch_agrees_pointwise(band_points):
    # the strict-state array transfer against the dict-DP boundary sum
    for p in band_points:
        for k, max_part, M in [(1, 12, 5), (2, 8, 3), (3, 7, 2)]:
            tab = f_direct_batch(k, max_part, M, p)
            strict = set(itertools.combinations(range(max_part, 0, -1), k))
            assert tab.shape == (max_part + 1,) * k
            for lam in np.ndindex(tab.shape):
                if lam in strict:
                    assert tab[lam] == pytest.approx(
                        f_direct(lam, p.v, M, p), rel=1e-12)
                else:
                    assert tab[lam] == 0.0, lam
