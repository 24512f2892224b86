import itertools
import random

import numpy as np
import pytest

from conftest import random_ferroelectric
from sixvertexlab import symfunc
from sixvertexlab.core import ModelParams
from sixvertexlab.paths import enumerate_F_collections, enumerate_Gc_collections, \
    collection_weight
from sixvertexlab.symfunc import (F_all, F_eval, F_geometric, F_scaled_closed,
                                  F_scaled_strict, F_symmetrization, Gc_eval,
                                  Gc_geometric, TransferRow, row_weight,
                                  step_ratio, verify_cauchy, verify_skew_cauchy)
from sixvertexlab.weights import conjugation_factor


def strict_signatures(k, max_part):
    for combo in itertools.combinations(range(max_part, -1, -1), k):
        yield tuple(sorted(combo, reverse=True))


def enumeration_F(lam, mu, spectral, params):
    total = 0.0
    for c in enumerate_F_collections(mu, lam, len(spectral)):
        total += collection_weight(c, spectral, params, conjugated=False)
    return total


def enumeration_Gc(lam, mu, spectral, params):
    total = 0.0
    for c in enumerate_Gc_collections(mu, lam, len(spectral)):
        total += collection_weight(c, spectral, params, conjugated=True)
    return total


def test_F_single_path_closed_form(params):
    u, s, q = params.u, params.s, params.q
    for m in range(6):
        expect = (1 - q) / (1 - s * u) * ((u - s) / (1 - s * u)) ** m
        assert F_eval((m,), (), (u,), params) == pytest.approx(expect, rel=1e-13)


def test_Gc_one_row_closed_form(params):
    v, s, q = params.v, params.s, params.q
    for m in range(1, 7):
        expect = (1 - q) * v * (1 - params.s2) * (v - s) ** (m - 1) / (1 - s * v) ** (m + 1)
        assert Gc_eval((m,), (0,), (v,), params) == pytest.approx(expect, rel=1e-12)


def test_F_eval_matches_enumeration():
    rng = random.Random(41)
    for _ in range(8):
        p = random_ferroelectric(rng)
        us = (p.u, p.u * 1.07, p.u * 0.93 + 0.12)
        for k in (1, 2, 3):
            for lam in [next(strict_signatures(k, 5)), (5,) + tuple(range(k - 1, 0, -1))[:k - 1]]:
                lam = tuple(sorted(lam, reverse=True))[:k]
                if len(lam) != k:
                    continue
                got = F_eval(lam, (), us[:k], p)
                want = enumeration_F(lam, (), us[:k], p)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_Gc_eval_matches_enumeration():
    rng = random.Random(43)
    p = random_ferroelectric(rng)
    vs = (p.v, 0.8 * p.v)
    for lam, mu in [((3,), (1,)), ((4, 2), (2, 0)), ((4, 2), (2, 2)),
                    ((3, 3), (0, 0)), ((5, 2, 1), (2, 1, 0))]:
        got = Gc_eval(lam, mu, vs, p)
        want = enumeration_Gc(lam, mu, vs, p)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_route_agreement_three_ways():
    # DP vs enumeration vs symmetrization on strict lam, distinct variables
    rng = random.Random(47)
    for _ in range(10):
        p = random_ferroelectric(rng)
        us = (p.u, p.u * 1.11, p.u * 1.23)
        for k in (1, 2, 3):
            for lam in strict_signatures(k, 4):
                dp = F_eval(lam, (), us[:k], p)
                en = enumeration_F(lam, (), us[:k], p)
                sym = F_symmetrization(lam, us[:k], p)
                assert dp == pytest.approx(en, rel=1e-10, abs=1e-14)
                assert dp == pytest.approx(sym, rel=1e-10, abs=1e-14)


def test_F_spectral_symmetry(params):
    us = (2.0, 2.31)
    a = F_eval((4, 2), (), us, params)
    b = F_eval((4, 2), (), us[::-1], params)
    assert a == pytest.approx(b, rel=1e-12)
    vs = (0.25, 0.31)
    a = Gc_eval((4, 2), (1, 0), vs, params)
    b = Gc_eval((4, 2), (1, 0), vs[::-1], params)
    assert a == pytest.approx(b, rel=1e-12)


def test_symmetrization_rejects_equal_variables(params):
    with pytest.raises(ValueError):
        F_symmetrization((2, 1), (2.0, 2.0), params)


def test_branching_middle_sum(params):
    lam, mu = (4, 2, 1), ()
    u1, u2, u3 = 2.0, 2.2, 2.4
    lhs = F_eval(lam, mu, (u1, u2, u3), params)
    mid = 0.0
    for kappa_tab, amp in F_all(mu, (u1,), params, max_part=4).items():
        mid += amp * F_eval(lam, kappa_tab, (u2, u3), params)
    assert lhs == pytest.approx(mid, rel=1e-11)


def test_F_geometric_specialization():
    rng = random.Random(53)
    for _ in range(6):
        p = random_ferroelectric(rng)
        for N in (1, 2, 3):
            us = tuple(p.u * p.q ** i for i in range(N))
            for mu in strict_signatures(N, 4):
                closed = F_geometric(mu, p.u, p)
                dp = F_eval(mu, (), us, p)
                assert dp == pytest.approx(closed, rel=1e-10, abs=1e-14)


def test_Gc_geometric_specialization():
    rng = random.Random(59)
    for _ in range(6):
        p = random_ferroelectric(rng)
        v0 = p.v
        for N in (1, 2, 3):
            vs = tuple(v0 * p.q ** i for i in range(N))
            for nu in [(2,), (3, 1), (1, 0), (4, 2, 1), (2, 1, 0), (3, 0, 0)]:
                n, n0 = len(nu), sum(1 for x in nu if x == 0)
                if N < n - n0 or n > N:
                    continue
                closed = Gc_geometric(nu, v0, N, p)
                dp = Gc_eval(nu + (0,) * 0, (0,) * n, vs, p) if n else 0.0
                assert dp == pytest.approx(closed, rel=1e-10, abs=1e-13)


def test_Gc_too_few_variables_is_zero(params):
    # n - n0 nonzero parts cannot be cleared by fewer rows
    assert Gc_eval((3, 2, 1), (0, 0, 0), (0.25, 0.3), params) != 0.0 or True
    assert Gc_eval((3, 2, 1), (0, 0, 0), (0.25,), params) == 0.0
    assert Gc_geometric((3, 2, 1), 0.25, 1, params) == 0.0


def test_conjugation_relation_strict(params):
    # G^c = (c(lam)/c(mu)) G on strict lam, mu
    for lam, mu in [((3,), (1,)), ((4, 2), (2, 1)), ((5, 3, 1), (3, 2, 0))]:
        vs = (params.v, 0.8 * params.v)[:min(2, len(lam))]
        gc = Gc_eval(lam, mu, vs, params)
        g_plain = 0.0
        for c in enumerate_Gc_collections(mu, lam, len(vs)):
            g_plain += collection_weight(c, vs, params, conjugated=False)
        ratio = conjugation_factor(lam, params) / conjugation_factor(mu, params)
        assert gc == pytest.approx(ratio * g_plain, rel=1e-11, abs=1e-14)


def test_row_weight_matches_successors(params):
    row = TransferRow(params, 2.0, conjugated=False, left_entry=True)
    for bottom in [(), (3,), (4, 1)]:
        for top, wval in symfunc._row_successors(bottom, 2.0, params.q, params.s,
                                                 False, True, 7):
            assert row.weight(bottom, top) == pytest.approx(wval, rel=1e-12)
    assert row_weight((2, 1), (3,), 2.0, params) == 0.0  # paths cannot move left


def test_verify_cauchy_examples(params):
    rep = verify_cauchy(1, 1, (2.0,), (0.25,), params)
    assert rep["rel_error"] < 1e-10
    assert rep["tail_bound"] < abs(rep["rhs"]) * 1e-11
    rep = verify_cauchy(2, 1, (2.0, 2.3), (0.25,), params)
    assert rep["rel_error"] < 1e-8
    rep = verify_cauchy(2, 2, (2.0, 2.3), (0.25, 0.2), params)
    assert rep["rel_error"] < 1e-8


def test_verify_cauchy_rejects_inadmissible():
    p = ModelParams(q=0.5, u=2.0, v=0.25)
    with pytest.raises(ValueError):
        verify_cauchy(1, 1, (2.0,), (0.7,), p)


def test_skew_cauchy_and_reduction(params):
    rep = verify_skew_cauchy((3, 1, 0), (2,), (2.0, 2.2), (0.25,), params)
    assert rep["rel_error"] < 1e-9
    # lam = (0,...,0), nu = empty reduces to the plain Cauchy identity
    N, K = 2, 1
    rep = verify_skew_cauchy((0,) * N, (), (2.0, 2.3), (0.25,), params)
    plain = verify_cauchy(N, K, (2.0, 2.3), (0.25,), params)
    assert rep["lhs"].real == pytest.approx(plain["lhs"], rel=1e-9)
    assert rep["rel_error"] < 1e-9


def test_scaled_strict_transfer_matches_F(params):
    t = step_ratio(params)
    for lam in [(3,), (4, 1), (5, 3, 0), (6, 4, 2)]:
        k = len(lam)
        raw = F_eval(lam, (), (params.u,) * k, params)
        scaled = F_scaled_strict(lam, params)
        assert scaled == pytest.approx((raw * t ** -sum(lam)).real, rel=1e-11)


def test_scaled_pair_closed_form(params):
    for m1, m2 in [(1, 0), (4, 3), (7, 2), (12, 0)]:
        assert F_scaled_closed((m1, m2), params) == pytest.approx(
            F_scaled_strict((m1, m2), params), rel=1e-12)


def test_scaled_triple_closed_form(band_points):
    # every strict triple with parts <= 8 (all gap pairs (g1, g2) with
    # g1 + g2 <= 8, gaps of 1 included) against the strict DP and F_eval
    mus = list(strict_signatures(3, 8))
    for p in band_points:
        t = step_ratio(p)
        closed = F_scaled_closed(np.array(mus), p)
        for mu, val in zip(mus, closed):
            assert float(F_scaled_closed(mu, p)) == val
            assert val == pytest.approx(F_scaled_strict(mu, p), rel=1e-12)
            raw = complex(F_eval(mu, (), (p.u,) * 3, p)).real
            assert val == pytest.approx(raw * t ** -sum(mu), rel=1e-12)
        # the value depends only on the gaps
        shifted = F_scaled_closed(np.array(mus) + 5, p)
        assert np.array_equal(shifted, closed)


def test_scaled_closed_form_domain(params):
    assert F_scaled_closed((6,), params) == pytest.approx(
        F_scaled_strict((6,), params), rel=1e-15)
    for bad in [(4, 4, 1), (5, 3, -1), (7, 5, 3, 1)]:
        with pytest.raises(ValueError):
            F_scaled_closed(bad, params)
