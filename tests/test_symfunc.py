import random
from functools import cache
from itertools import combinations_with_replacement

import numpy as np
import pytest

from sixvertexlab import checks, symfunc
from sixvertexlab.checks import random_point
from sixvertexlab.core import (ModelParams, admissible_ratio, as_parts,
                               multiplicities, strict_atoms)
from sixvertexlab.paths import enumerate_F_collections, enumerate_Gc_collections, \
    collection_weight
from sixvertexlab.symfunc import (F_eval, F_scaled_closed, F_symmetrization,
                                  Gc_eval, Gc_geometric, step_ratio,
                                  verify_cauchy, verify_skew_cauchy)
from sixvertexlab.weights import vertex_weight_raw


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
        expect = (1 - q) * v * (1 - 1 / q) * (v - s) ** (m - 1) / (1 - s * v) ** (m + 1)
        assert Gc_eval((m,), (0,), (v,), params) == pytest.approx(expect, rel=1e-12)


def test_F_eval_matches_enumeration():
    rng = random.Random(41)
    for _ in range(8):
        p = random_point(rng)
        us = (p.u, p.u * 1.07, p.u * 0.93 + 0.12)
        for k in (1, 2, 3):
            for lam in [tuple(range(5, 5 - k, -1)), (5,) + tuple(range(k - 1, 0, -1))[:k - 1]]:
                lam = tuple(sorted(lam, reverse=True))[:k]
                if len(lam) != k:
                    continue
                got = F_eval(lam, (), us[:k], p)
                want = enumeration_F(lam, (), us[:k], p)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_Gc_eval_matches_enumeration():
    rng = random.Random(43)
    p = random_point(rng)
    vs = (p.v, 0.8 * p.v)
    for lam, mu in [((3,), (1,)), ((4, 2), (2, 0)), ((4, 2), (2, 2)),
                    ((3, 3), (0, 0)), ((5, 2, 1), (2, 1, 0))]:
        got = Gc_eval(lam, mu, vs, p)
        want = enumeration_Gc(lam, mu, vs, p)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_pruned_routes_agree_on_skew_grid(band_points):
    # F and G^c of every (mu, lam) with at most 2 parts <= 4 over n <= 2
    # rows, non-strict and mu_i = lam_i included: transfer and enumeration
    # both cut branches at the rank bounds, so a bound slip in either shows
    sigs = [sig for k in range(3)
            for sig in combinations_with_replacement(range(4, -1, -1), k)]
    nonzero = 0
    for p in band_points:
        us, vs = (p.u, 1.1 * p.u), (p.v, 0.9 * p.v)
        for mu in sigs:
            for lam in sigs:
                n = len(lam) - len(mu)
                cases = []
                if 0 <= n <= 2:
                    cases.append((F_eval(lam, mu, us[:n], p),
                                  enumeration_F(lam, mu, us[:n], p)))
                if n == 0:
                    cases += [(Gc_eval(lam, mu, vs[:m], p),
                               enumeration_Gc(lam, mu, vs[:m], p))
                              for m in (1, 2)]
                for got, want in cases:
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
                    nonzero += want != 0.0
    assert nonzero > 400  # 486 of the 1,696 cases


def test_route_agreement_three_ways():
    # DP vs enumeration vs symmetrization on strict lam, distinct variables
    worst = checks.route_agreement(checks.random_points(47, 10),
                                   (1.0, 1.11, 1.23), 4)[2]
    assert worst < 1e-10


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
    err = checks.branching_middle_sum(params, (4, 2, 1), (2.0, 2.2, 2.4))[2]
    assert err < 1e-11


def test_F_geometric_specialization():
    worst = checks.geometric_specialization(checks.random_points(53, 6), 4)
    assert worst[3]["F"] < 1e-10


def test_Gc_geometric_specialization():
    rng = random.Random(59)
    for _ in range(6):
        p = random_point(rng)
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
    # n - n0 nonzero parts cannot be cleared by fewer rows: two rows move at
    # most two paths off column 0, three rows can move all three
    assert Gc_eval((3, 2, 1), (0, 0, 0), (0.25, 0.3), params) == 0.0
    assert Gc_eval((3, 2, 1), (0, 0, 0), (0.25, 0.3, 0.2), params) != 0.0
    assert Gc_eval((3, 2, 1), (0, 0, 0), (0.25,), params) == 0.0
    assert Gc_geometric((3, 2, 1), 0.25, 1, params) == 0.0


def test_conjugation_relation_strict(params):
    # G^c = (c(lam)/c(mu)) G on strict lam, mu
    assert checks.conjugation_relation(params)[2] < 1e-11


def row_weight(top, bottom, spectral, params: ModelParams,
               conjugated: bool = False) -> complex:
    """Single-variable skew function from one row of vertex weights: the
    per-pair reference for the row transfer.

    A plain row takes one path entering from the left, a conjugated row
    none.  The horizontal occupancies are forced by the (bottom, top) pair
    through prefix counts; the value is 0 unless they all lie in {0, 1}.
    """
    top, bottom = as_parts(top), as_parts(bottom)
    h = 0 if conjugated else 1
    if len(top) != len(bottom) + h:
        return 0.0
    q, s = params.q, params.s
    bm, tm = multiplicities(bottom), multiplicities(top)
    hi = max([*top, *bottom, -1])
    out: complex = 1.0
    for x in range(hi + 1):
        i1 = bm.get(x, 0)
        i2 = tm.get(x, 0)
        j2 = i1 + h - i2
        if j2 not in (0, 1):
            return 0.0
        out *= vertex_weight_raw(i1, h, i2, j2, q, s, spectral, conjugated)
        if out == 0.0:
            return 0.0
        h = j2
    return out if h == 0 else 0.0


def test_row_weight_matches_successors(params):
    for bottom, spectral, conjugated in [
            ((), 2.0, False), ((3,), 2.0, False), ((4, 1), 2.0, False),
            ((3, 0), 0.25, True), ((4, 2), 0.25, True),
            ((5, 3, 1), 0.25, True), ((3, 3), 0.25, True)]:
        succ = symfunc._apply_row({bottom: 1.0}, spectral, params.q, params.s,
                                  conjugated, (7,) * 3, (0,) * 3, {}, False)
        assert succ
        for top, wval in succ.items():
            assert row_weight(top, bottom, spectral, params,
                              conjugated) == pytest.approx(wval, rel=1e-12)
    assert row_weight((2, 1), (3,), 2.0, params) == 0.0  # paths cannot move left


def chained_rows(states, spectral, p, conjugated, envelope):
    """transfer's rows, each with an empty memo that keeps nothing: the
    memo-free reference.  Also returns the (state, floor slice) keys that
    each run of equal spectral values expands, and the number of states
    the rows expand in all."""
    n, (ceil, floor) = len(spectral), envelope
    floor = (*floor, *(0,) * (len(ceil) + n))
    runs, expanded = [], 0
    for r, u_r in enumerate(spectral):
        if not r or u_r != spectral[r - 1]:
            runs.append(set())
        row_floor = floor[n - r - 1:]
        live = [sig for sig, amp in states.items() if amp != 0.0]
        runs[-1].update((sig, row_floor[:len(sig) + (not conjugated)])
                        for sig in live)
        expanded += len(live)
        states = symfunc._apply_row(states, u_r, p.q, p.s, conjugated, ceil,
                                    row_floor, {}, False)
    return states, runs, expanded


def test_transfer_reuses_successors_only_within_a_run(params, monkeypatch):
    # a run of equal spectral values shares successor lists, keyed by the
    # floor slice of the state's rank, and drops them when it ends: every
    # value keeps its bits, and each key of a run is expanded once
    p, u, v = params, params.u, params.v
    lam = (6, 3, 1)
    below = [nu for nu in strict_atoms(3, 1, lam[0]).tolist()
             if all(a <= b for a, b in zip(nu, lam))]
    g_table = symfunc.transfer({(0, 0): 1.0 + 0.0j}, (v, v), p, True,
                               ((24, 24), ()))
    cases = [  # plain [u]^3, f_direct's sum, mixed values, a Cauchy table
        ({(): 1.0 + 0.0j}, (u,) * 3, False, ((8,) * 3, ())),
        ({tuple(nu): (-p.s) ** sum(nu) for nu in below}, (v,) * 12, True,
         (lam, lam)),
        ({(): 1.0 + 0.0j}, (u, u, 1.1 * u, 1.1 * u, u), False,
         ((9,) * 5, (7, 5, 3, 1, 0))),
        ({(4, 1): 1.0 + 0.0j}, (v, 0.8 * v, 0.8 * v, v), True, ((9, 7), ())),
        ({(0, 0): 1.0 + 0.0j}, (v, v), True, ((24, 24), ())),
        ({(): 1.0 + 0.0j}, (u, u), False,
         (tuple(map(max, *g_table)), tuple(map(min, *g_table)))),
    ]
    calls = []
    expand = symfunc._row_successors
    monkeypatch.setattr(symfunc, "_row_successors",
                        lambda *a: calls.append(a) or expand(*a))
    for states, spectral, conjugated, envelope in cases:
        want, runs, expanded = chained_rows(states, spectral, p, conjugated,
                                            envelope)
        calls.clear()
        got = symfunc.transfer(states, spectral, p, conjugated, envelope)
        assert want and list(got) == list(want)
        assert all(repr(got[sig]) == repr(want[sig]) for sig in want)
        assert len(calls) == sum(map(len, runs)), spectral
        # conjugated rows keep the part count, so states recur in a run
        assert len(calls) < expanded or not conjugated


def test_verify_cauchy_examples(params):
    rep = verify_cauchy(1, 1, (2.0,), (0.25,), params, tol=1e-10)
    assert rep["rel_error"] < 1e-10
    assert rep["tail_bound"] < abs(rep["rhs"]) * 1e-11
    rep = verify_cauchy(2, 1, (2.0, 2.3), (0.25,), params, tol=1e-10)
    assert rep["rel_error"] < 1e-8
    rep = verify_cauchy(2, 2, (2.0, 2.3), (0.25, 0.2), params, tol=1e-10)
    assert rep["rel_error"] < 1e-8


# (u steps, v steps, (N, K) grid) of acceptance criterion 2 and of the CLI's
# identities, both at the canonical point
CRITERION_2 = (0.13, 0.2, [(1, 1), (1, 2), (2, 1), (2, 2)])
CLI_IDENTITIES = (0.1, 0.15, [(1, 1), (2, 1), (2, 2)])


def cauchy_cases(p, du, dv, grid):
    return [(N, K, tuple(p.u * (1 + du * i) for i in range(N)),
             tuple(p.v * (1 - dv * j) for j in range(K))) for N, K in grid]


def doubling_cap(top):
    """The first of the caps 16, 32, 64, ... that reaches part top."""
    L = 16
    while L < top:
        L *= 2
    return L


@cache
def doubling_terms(lam, nu, us, vs, p, cap):
    """The terms of sum_kappa G^c_{kappa/lam}(v) F_{kappa/nu}(u) by top
    part, from the full F and G^c tables at part cap cap."""
    envelope = ((cap,) * len(lam), ())
    f_table = symfunc.transfer({nu: 1.0 + 0.0j}, us, p, False, envelope)
    g_table = symfunc.transfer({lam: 1.0 + 0.0j}, vs, p, True, envelope)
    by_top = {}
    for sig in sorted(f_table):
        if sig in g_table:
            by_top[sig[0]] = (by_top.get(sig[0], 0.0)
                              + f_table[sig] * g_table[sig])
    return by_top


def doubling_reference(rep, lam, nu, us, vs, p, tol):
    """(lhs, truncation_L, tail_bound) of the doubling cap schedule: the
    tail rule applied to doubling_terms, summed upward in part size."""
    by_top = doubling_terms(lam, nu, us, vs, p,
                            doubling_cap(rep["truncation_L"]))
    r = max(admissible_ratio(u, v, p.s) for u in us for v in vs)
    N, K = len(lam), len(vs)
    p_deg = (N - 1) + N * (N - 1) + N * max(K - N, 0)
    goal = tol * max(abs(rep["rhs"]), 1e-300) / 10.0
    lhs = 0.0
    for m in sorted(by_top):
        lhs += by_top[m]
        r_eff = r * ((m + 2) / (m + 1)) ** p_deg
        # rounded up as _cauchy_sum rounds its bound
        tail = (abs(by_top[m]) * r_eff / (1.0 - r_eff) * (1.0 + 2.0 ** -40)
                if r_eff < 1.0 else np.inf)
        if tail < goal:
            return (complex(lhs).real if abs(complex(lhs).imag) < 1e-12
                    else lhs, m, tail)
    raise AssertionError("the doubling reference did not certify")


def test_cauchy_envelope_keeps_lhs_bits(params):
    # the Cauchy sum builds F only inside the rank-wise range of the G^c
    # keys; the full F table at the doubling schedule's cap, summed against
    # G^c in the same order, must give the same lhs bit for bit.  The full
    # tables 50 parts past the certified one (the terms left out beyond
    # them are below r^50 of the remainder) bound what the tail leaves out.
    cases = [((0,) * N, (), us, vs, verify_cauchy(N, K, us, vs, params,
                                                  tol=1e-10))
             for N, K, us, vs in cauchy_cases(params, *CRITERION_2)]
    us, vs = (params.u, 1.1 * params.u), (params.v,)
    cases.append(((3, 1, 0), (2,), us, vs,
                  verify_skew_cauchy((3, 1, 0), (2,), us, vs, params)))
    for lam, nu, us, vs, rep in cases:
        assert rep["lhs"] == doubling_reference(rep, lam, nu, us, vs, params,
                                                1e-10)[0], (lam, nu, vs)
        top = rep["truncation_L"]
        by_top = doubling_terms(lam, nu, us, vs, params,
                                doubling_cap(top + 50))
        remainder = abs(sum(by_top[m] for m in sorted(by_top) if m > top))
        assert 0.0 < remainder <= rep["tail_bound"], (lam, nu, vs)


def test_cauchy_tail_bound_holds_at_geometric_terms():
    # at N = K = 1 the terms are exactly geometric and the remainder equals
    # the unrounded bound (one ulp above it at the fourth point); at random
    # points the full-table remainder past the certified part (cap at least
    # 50 parts further) stays within the rounded one
    for p in checks.random_points(11, 6):
        rep = verify_cauchy(1, 1, (p.u,), (p.v,), p, tol=1e-8)
        top = rep["truncation_L"]
        by_top = doubling_terms((0,), (), (p.u,), (p.v,), p,
                                doubling_cap(top + 50))
        remainder = abs(sum(by_top[m] for m in sorted(by_top) if m > top))
        assert 0.0 < remainder <= rep["tail_bound"], (p, remainder, rep)


@pytest.mark.parametrize("cases", [CRITERION_2, CLI_IDENTITIES],
                         ids=["criterion-2", "cli-identities"])
def test_cauchy_cap_schedule_stops_near_the_certified_part(params, cases,
                                                           monkeypatch):
    # each pass calls transfer twice, G^c (conjugated) first; the second
    # pass takes its cap from the first pass's tail and certifies there
    calls, real = [], symfunc.transfer

    def counted(states, spectral, p, conjugated, envelope):
        out = real(states, spectral, p, conjugated, envelope)
        calls.append((conjugated, envelope[0][0], len(out)))
        return out

    monkeypatch.setattr(symfunc, "transfer", counted)
    reps = []
    for N, K, us, vs in cauchy_cases(params, *cases):
        calls.clear()
        rep = verify_cauchy(N, K, us, vs, params, tol=1e-10)
        passes = calls[0::2]
        assert [c[0] for c in calls] == [True, False] * len(passes)
        assert len(passes) <= 2, (N, K, passes)
        assert passes[-1][1] <= 1.25 * rep["truncation_L"], (N, K, passes)
        assert rep["caps"] == [(L, g, f) for (_, L, g), (_, _, f)
                               in zip(calls[0::2], calls[1::2])]
        reps.append((rep, us, vs))
    monkeypatch.undo()
    for rep, us, vs in reps:
        _, top, tail = doubling_reference(rep, (0,) * len(us), (), us, vs,
                                          params, 1e-10)
        assert (rep["truncation_L"], repr(rep["tail_bound"])) == (top,
                                                                  repr(tail))


def slow_decay_point():
    """q = 0.5, u = 1.3 s, v solved for r(u, v) = 0.8: the pair (1.1 u, v)
    has r = 0.986, too slow a decay to certify by part 512."""
    q = 0.5
    s = q ** -0.5
    u = 1.3 * s
    g = 0.8 * (s * u - 1) / (u - s)
    return u, ModelParams(q=q, u=u, v=(g - s) / (g * s - 1))


def assert_refusal(diag, u, p, tol):
    assert (diag["N"], diag["K"], diag["tol"]) == (2, 1, tol)
    assert diag["r"] == admissible_ratio(1.1 * u, p.v, p.s) > 0.98
    assert diag["caps"][0][0] == 16
    assert diag["caps"][-1][0] == symfunc.CAUCHY_MAX_PART
    assert 0.0 < diag["last_term"] < 1.0


def test_verify_cauchy_refuses_with_diagnostics():
    u, p = slow_decay_point()
    with pytest.raises(symfunc.CauchyTailError) as exc:
        verify_cauchy(2, 1, (u, 1.1 * u), (p.v,), p, tol=1e-10)
    assert isinstance(exc.value, RuntimeError)
    assert_refusal(exc.value.diagnostics, u, p, 1e-10)


def test_verify_skew_cauchy_refuses_with_diagnostics():
    # the skew sum runs the same certified schedule, so it refuses where
    # the plain one does instead of returning a truncated sum
    u, p = slow_decay_point()
    with pytest.raises(symfunc.CauchyTailError) as exc:
        verify_skew_cauchy((1, 0), (), (u, 1.1 * u), (p.v,), p)
    assert_refusal(exc.value.diagnostics, u, p, symfunc.SKEW_CAUCHY_TOL)


def test_verify_cauchy_rejects_inadmissible():
    p = ModelParams(q=0.5, u=2.0, v=0.25)
    with pytest.raises(ValueError):
        verify_cauchy(1, 1, (2.0,), (0.7,), p, tol=1e-10)


def test_skew_cauchy_and_reduction(params):
    # nu = (19,) puts every kappa past the first cap of 16
    for nu in [(2,), (19,)]:
        rep = verify_skew_cauchy((3, 1, 0), nu, (2.0, 2.2), (0.25,), params)
        assert rep["rel_error"] < 1e-9, nu
        assert rep["tail_bound"] < abs(rep["rhs"]) * 1e-11, nu
    # with no u (or no v) both sides are one G^c (or F) value
    for lam, nu, us, vs in [((1,), (3,), (), (0.25,)),
                            ((3, 1), (2,), (2.0,), ())]:
        assert verify_skew_cauchy(lam, nu, us, vs, params)["rel_error"] < 1e-12
    # lam = (0,...,0), nu = empty reduces to the plain Cauchy identity: the
    # right sides agree, and the skew identity holds there
    _, _, err, skew = checks.skew_reduces_to_cauchy(params, (2.0, 2.3),
                                                    (0.25,))
    assert err < 1e-9 and skew["skew_rel_error"] < 1e-9


def scaled_F_eval(mu, p):
    """F_mu([u]^k) t^-|mu| from the raw vertex weights of F_eval."""
    raw = complex(F_eval(mu, (), (p.u,) * len(mu), p)).real
    return raw * step_ratio(p) ** -sum(mu)


def test_scaled_strict_transfer_matches_F(params):
    for lam in [(3,), (4, 1), (5, 3, 0), (6, 4, 2)]:
        assert float(F_scaled_closed(lam, params)) == pytest.approx(
            scaled_F_eval(lam, params), rel=1e-11)


def test_scaled_pair_closed_form(params):
    for m1, m2 in [(1, 0), (4, 3), (7, 2), (12, 0)]:
        assert F_scaled_closed((m1, m2), params) == pytest.approx(
            scaled_F_eval((m1, m2), params), rel=1e-12)


def test_scaled_triple_closed_form(band_points):
    # every strict triple with parts <= 8 (all gap pairs (g1, g2) with
    # g1 + g2 <= 8, gaps of 1 included) against F_eval
    mus = strict_atoms(3, 0, 8)
    for p in band_points:
        closed = F_scaled_closed(mus, p)
        for mu, val in zip(mus.tolist(), closed):
            assert float(F_scaled_closed(mu, p)) == val
            assert val == pytest.approx(scaled_F_eval(mu, p), rel=1e-12)
        # the value depends only on the gaps
        shifted = F_scaled_closed(mus + 5, p)
        assert np.array_equal(shifted, closed)


def test_scaled_closed_form_domain(params):
    assert F_scaled_closed((6,), params) == pytest.approx(
        scaled_F_eval((6,), params), rel=1e-15)
    for bad in [(4, 4, 1), (5, 3, -1), (7, 5, 3, 1)]:
        with pytest.raises(ValueError):
            F_scaled_closed(bad, params)
