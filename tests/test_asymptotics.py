import cmath
import math
import random

import numpy as np
import pytest

from conftest import random_ferroelectric
from sixvertexlab import asymptotics as asy


def test_constants_reference_point(params):
    cst = asy.constants(params)
    assert cst.a == pytest.approx(0.357, abs=5e-4)
    assert cst.b == pytest.approx(-0.934, abs=5e-4)
    assert cst.c == pytest.approx(0.525, abs=5e-4)
    assert cst.d == pytest.approx(1.097, abs=5e-4)
    assert cst.d == pytest.approx(-math.sqrt(2 * cst.c) / cst.b, rel=1e-14)


def test_constants_signs_on_grid():
    rng = random.Random(61)
    for _ in range(50):
        p = random_ferroelectric(rng)
        cst = asy.constants(p)
        assert cst.a > 0 and cst.b < 0 and cst.c > 0 and cst.d > 0


def _fd_first(fn, u, h):
    d1 = (fn(u + h) - fn(u - h)) / (2 * h)
    d2 = (fn(u + h / 2) - fn(u - h / 2)) / h
    return (4 * d2 - d1) / 3  # one Richardson step


def test_critical_point_facts():
    rng = random.Random(67)
    for _ in range(20):
        p = random_ferroelectric(rng)
        cst = asy.constants(p)
        u = p.u
        h = 1e-5 * u
        G = lambda z: asy.phase_G(z, p)
        g = lambda z: asy.phase_g(z, p)
        assert abs(G(u)) < 1e-6
        assert abs(g(u)) < 1e-6
        assert abs(_fd_first(G, u, h)) < 1e-6
        second = ((G(u + h) - 2 * G(u) + G(u - h)) / h ** 2).real
        assert abs(second - 2 * cst.c) < 1e-4 * abs(2 * cst.c)
        assert abs(_fd_first(g, u, h).real - cst.b) < 1e-6


def test_phase_rejects_poles(params):
    for z in (params.s, 1 / params.s, 1 / params.v, 1 / (params.q * params.v)):
        with pytest.raises(ValueError):
            asy.phase_G(z, params)


def test_descent_profile(params):
    prof = asy.descent_profile(params, n=1000, eps=0.1)
    assert prof["max_re_G"] <= 1e-12
    assert prof["argmax_is_u"]
    assert prof["delta_bound_outside"] < 0.0


def test_branch_continuity(params):
    z = asy.contour_samples(params, 1000)
    worst = asy.branch_continuity_check(z, params)
    assert worst < 0.5 * np.pi
    with pytest.raises(RuntimeError):
        asy.branch_continuity_check(z[::100], params, max_jump=1e-4)


def test_quadratic_expansion(params):
    fit = asy.quadratic_expansion_fit(params)
    assert fit["feasible"]
    assert fit["C1"] > 0 and 0 < fit["eps1"] <= fit["radius"]


def test_h_M_offset(params):
    cst = asy.constants(params)
    rng = random.Random(71)
    for _ in range(100):
        x = rng.uniform(-4, 4)
        M = rng.randrange(10, 2000)
        h = asy.h_M_offset(x, M, cst.a, cst.d)
        assert -1.0 < h <= 0.0
        total = cst.a * M + cst.d * math.sqrt(M) * x + h
        assert abs(total - round(total)) < 1e-9


def test_integrand_reassembles_integer_powers(params):
    # exp(M G + (d sqrt(M) x + h) g) equals the integer-power ratio product
    cst = asy.constants(params)
    M, x = 37, 0.83
    lam = asy.scaled_parts((x,), M, cst.a, cst.d)[0]
    h = asy.h_M_offset(x, M, cst.a, cst.d)
    for z in (params.u + 1.3j, params.u + 2j * params.u * 0.99, -0.7 * params.u):
        lhs = cmath.exp(M * asy.phase_G(z, params)
                        + (cst.d * math.sqrt(M) * x + h) * asy.phase_g(z, params))
        s, q, u, v = params.s, params.q, params.u, params.v
        rhs = (((1 - s * z) / (z - s) * (u - s) / (1 - s * u)) ** lam
               * ((1 - q * v * z) / (1 - v * z) * (1 - u * v) / (1 - q * u * v)) ** M)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_bm_contour_k1_limit(params):
    lim = asy.bm_limit((0.0,), 1, params)
    assert lim == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)
    errs = [abs(asy.B_M_contour((0.0,), M, params) - lim) for M in (100, 400, 1600)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.05 * lim
    val = asy.B_M_contour((1.0,), 400, params)
    lim1 = (2 * math.pi) ** -0.5 * math.exp(-0.5)
    assert val == pytest.approx(lim1, rel=0.05)


def test_bm_contour_k2_limit(params):
    xs = (-1.0, 1.0)
    cst = asy.constants(params)
    lim = asy.bm_limit(xs, 2, params)
    assert lim == pytest.approx(2 * math.exp(-1.0) / (2 * math.pi * cst.d), rel=1e-13)
    errs = [abs(asy.B_M_contour(xs, M, params) - lim) for M in (100, 400, 1600)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.10 * lim


def test_bm_requires_large_M(params):
    with pytest.raises(ValueError):
        asy.B_M_contour((5.0,), 2, params)


def test_am_convergence_and_bound(params):
    xs = (-1.0, 1.0)
    cst = asy.constants(params)
    lim = asy.am_limit(xs)
    errs = []
    for M in (100, 400, 1600):
        lam = asy.scaled_parts(xs, M, cst.a, 1.0)
        val = asy.A_M(lam, M, params)
        errs.append(abs(val - lim))
        assert abs(val) < 10.0  # uniform bound
    assert errs[0] > errs[1] > errs[2]


def test_am_supports_k_up_to_3(params):
    assert math.isfinite(asy.A_M((9, 5, 2), 10, params))
    with pytest.raises(ValueError):
        asy.A_M((9, 5, 2, 1), 10, params)


def test_am_times_bm_is_the_pmf(params):
    from sixvertexlab.measure import top_row_pmf
    for k, M in [(1, 8), (2, 6)]:
        pmf = top_row_pmf(k, M, params, route="direct")
        for atom in pmf.atoms[:: max(1, len(pmf.atoms) // 7)]:
            prob = pmf.prob(atom)
            if prob < 1e-12:
                continue
            am = asy.A_M(atom, M, params)
            for route in ("contour", "direct"):
                bm = asy.B_M(atom, M, params, route=route)
                assert am * bm == pytest.approx(prob, rel=1e-8)


def test_am_times_bm_is_the_contour_pmf(params):
    # the scalar composite route (B_M) against the window route (the pmf),
    # at the modal atom and its two neighbours in the pmf's atom order
    from sixvertexlab.measure import top_row_pmf
    for k, M in [(1, 30), (2, 30), (3, 10)]:
        pmf = top_row_pmf(k, M, params)
        i = int(np.argmax(pmf.probs))
        for atom, prob in zip(pmf.atoms[i - 1:i + 2], pmf.probs[i - 1:i + 2]):
            val = asy.A_M(atom, M, params) * asy.B_M(atom, M, params)
            assert val == pytest.approx(prob, rel=1e-10)


def test_hermite_values():
    assert asy.hermite(0, 1.7) == 1.0
    assert asy.hermite(1, 1.7) == pytest.approx(1.7)
    assert asy.hermite(2, 0.0) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        asy.hermite(25, 0.0)


def test_psi_against_oscillatory_quadrature():
    z = np.linspace(-40, 40, 400_001)
    dz = z[1] - z[0]
    for n in (0, 1, 2, 3):
        for x in (-1.2, 0.0, 0.7):
            integrand = z ** n * np.exp(-z ** 2 / 2 - 1j * x * z)
            quad = integrand.sum() * dz / (2 * math.pi)
            assert complex(asy.psi(n, x)) == pytest.approx(complex(quad),
                                                           rel=1e-8, abs=1e-12)
    assert asy.psi(0, 0.0) == pytest.approx((2 * math.pi) ** -0.5)


def test_hermite_vandermonde_determinant():
    rng = np.random.default_rng(5)
    for _ in range(5):
        xs = np.sort(rng.normal(size=3))
        k = 3
        mat = np.array([[asy.hermite(k - j, xs[i]) for j in range(1, k + 1)]
                        for i in range(k)])
        det = np.linalg.det(mat)
        vand = np.prod([xs[i] - xs[j] for i in range(k) for j in range(i + 1, k)])
        assert det == pytest.approx(vand, rel=1e-10, abs=1e-12)
