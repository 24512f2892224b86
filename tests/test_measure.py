import itertools
import math

import numpy as np
import pytest

from sixvertexlab import measure
from sixvertexlab.core import ModelParams, Signature
from sixvertexlab.measure import (HalfStrictGTPattern,
                                  conditional_lower_rows, conditional_k2_weights,
                                  enumerate_gt_patterns, gibbs_pattern_weight,
                                  gibbs_vertex_counts, partition_Z,
                                  pattern_to_collection,
                                  sample_conditional_k2, sample_top_row,
                                  top_row_pmf)
from sixvertexlab.paths import collection_weight
from sixvertexlab.symfunc import F_eval


def test_partition_Z_examples(params):
    q, s, u = params.q, params.s, params.u
    assert partition_Z(1, 0, params) == pytest.approx(
        (1 - q) * (1 - u / s) / (1 - s * u), rel=1e-14)
    assert partition_Z(2, 3, params) > 0.0


def test_partition_Z_equals_weighted_path_sum(params):
    # sum over explicit collections of prod(w) * f(top) vs the product formula
    from sixvertexlab.boundary import f_direct_batch
    from sixvertexlab.paths import enumerate_F_collections
    k, M, cap = 2, 3, 48
    f_tab = f_direct_batch(k, cap, params.v, M, params)
    total = 0.0
    for lam, f_val in sorted(f_tab.items()):
        for pc in enumerate_F_collections((), lam, k):
            w = complex(collection_weight(pc, (params.u,) * k, params)).real
            total += w * f_val
    assert total == pytest.approx(partition_Z(k, M, params), rel=1e-8)


def test_pmf_routes_agree(params):
    for k, M in [(1, 5), (2, 4), (3, 3)]:
        pc = top_row_pmf(k, M, params, route="contour")
        pd = top_row_pmf(k, M, params, route="direct")
        assert pc.total_mass == pytest.approx(1.0, abs=1e-6)
        assert pd.total_mass == pytest.approx(1.0, abs=1e-6)
        for atom, prob in zip(pd.atoms, pd.probs):
            assert pc.prob(atom) == pytest.approx(prob, abs=1e-12)


def test_direct_F_table_matches_F_eval(band_points):
    # the direct route's F from strict array rows against the dict DP
    for p in band_points:
        for k, hi in [(1, 9), (2, 7), (3, 6)]:
            tab = measure._F_transfer_window(k, hi, p)
            for mu in itertools.combinations(range(hi, -1, -1), k):
                ref = complex(F_eval(mu, (), (p.u,) * k, p)).real
                assert tab[mu] == pytest.approx(ref, rel=1e-12)


def _record_windows(monkeypatch):
    """Log (lo, hi) of every contour window integration of top_row_pmf."""
    calls = []
    ic_window = measure._ic_window

    def logged(k, lo, hi, *args):
        calls.append((lo, hi))
        return ic_window(k, lo, hi, *args)

    monkeypatch.setattr(measure, "_ic_window", logged)
    return calls


def _fresh_window(pmf):
    """The pmf's final window evaluated from scratch, with no memo."""
    lo, hi = pmf.window
    atoms, probs = measure._pmf_window(pmf.k, pmf.M, pmf.params, lo, hi,
                                       "contour", {})
    assert tuple(map(tuple, atoms.tolist())) == pmf.atoms
    return probs


def test_pmf_extension_matches_fresh_window(params, monkeypatch):
    calls = _record_windows(monkeypatch)
    pmf = top_row_pmf(3, 10, params)
    # at least two extensions with lo fixed, so the memo is reused
    assert len(calls) >= 3 and len({lo for lo, _ in calls}) == 1
    probs = np.asarray(pmf.probs)
    fresh = _fresh_window(pmf)
    assert np.max(np.abs(probs - fresh)) <= 1e-15 * np.max(probs)


def test_pmf_window_when_lo_moves(monkeypatch):
    # k = 2, M = 400 at the gue-compare point: lo moves down on extension,
    # so the memo starts over; the window and atoms are pinned
    u = 1.5 * 2 ** 0.5
    p = ModelParams(q=0.5, u=u, v=0.7 / u)
    calls = _record_windows(monkeypatch)
    pmf = top_row_pmf(2, 400, p)
    assert len({lo for lo, _ in calls}) >= 2
    assert pmf.window == (41, 917)
    assert pmf.atoms == tuple((m1, m2) for m2 in range(41, 918)
                              for m1 in range(m2 + 1, 918))
    probs = np.asarray(pmf.probs)
    fresh = _fresh_window(pmf)
    assert np.max(np.abs(probs - fresh)) <= 1e-15 * np.max(probs)


def test_pmf_contour_noise_floor(params):
    # atoms below the floor are quadrature noise and may be negative; the
    # floor is 2e-13 max p (worst seen: -5.4e-14 and 5.8e-14)
    floor = 2e-13
    for k, M in [(2, 30), (2, 400), (3, 10)]:
        probs = np.asarray(top_row_pmf(k, M, params).probs)
        assert probs.min() >= -floor * probs.max()
    pc = top_row_pmf(3, 3, params, route="contour")
    pd = top_row_pmf(3, 3, params, route="direct")
    assert pc.atoms == pd.atoms
    diff = np.abs(np.asarray(pc.probs) - np.asarray(pd.probs))
    assert diff.max() <= floor * max(pd.probs)


def test_pmf_mass_normalization(params):
    for k, M in [(1, 30), (1, 50), (2, 30), (2, 50)]:
        pmf = top_row_pmf(k, M, params)
        assert abs(pmf.total_mass - 1.0) < 1e-6


def test_pmf_k3_mass(params):
    pmf = top_row_pmf(3, 12, params)
    assert abs(pmf.total_mass - 1.0) < 1e-6


def test_pmf_atoms_strict_and_colex(params):
    pmf = top_row_pmf(2, 10, params)
    assert all(a > b >= 1 for a, b in pmf.atoms)
    rev = [tuple(reversed(a)) for a in pmf.atoms]
    assert rev == sorted(rev)


def test_pmf_mode_near_aM(params):
    from sixvertexlab.asymptotics import constants
    M = 40
    pmf = top_row_pmf(1, M, params)
    mode = pmf.atoms[int(np.argmax(pmf.probs))][0]
    cst = constants(params)
    assert abs(mode - cst.a * M) <= 3.0 * cst.d * math.sqrt(M)


def test_sampling_determinism_and_frequencies(params):
    pmf = top_row_pmf(1, 10, params)
    a = sample_top_row(pmf, seed=42, count=500)
    b = sample_top_row(pmf, seed=42, count=500)
    assert a == b
    # multinomial 3-sigma band per atom at 1e5 draws
    n = 100_000
    draws = sample_top_row(pmf, seed=7, count=n)
    counts = {}
    for sig in draws:
        counts[sig.parts] = counts.get(sig.parts, 0) + 1
    for atom, prob in zip(pmf.atoms, pmf.probs):
        if prob < 1e-4:
            continue
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(counts.get(atom, 0) - n * prob) < 3.5 * sigma


def test_point_mass_sampling():
    pmf = measure.TopRowPMF(k=1, M=0, params=ModelParams(0.5, 2.0, 0.25),
                            route="direct", window=(3, 3), atoms=((3,),),
                            probs=(1.0,))
    assert sample_top_row(pmf, seed=0, count=5) == [Signature((3,))] * 5


def test_gt_pattern_validation():
    HalfStrictGTPattern(rows=((2,), (1, 3)))
    with pytest.raises(ValueError):
        HalfStrictGTPattern(rows=((5,), (1, 3)))  # no interlacing
    with pytest.raises(ValueError):
        HalfStrictGTPattern(rows=((1,), (2, 2)))  # not strict


def test_gt_enumeration_count():
    # k=2 top (l1, l2): middle entries are the integers in [l1, l2]
    pats = enumerate_gt_patterns((2, 6))
    assert len(pats) == 5
    assert sorted(p.rows[0][0] for p in pats) == [2, 3, 4, 5, 6]


def test_gibbs_counts_window_area(params):
    for pat in enumerate_gt_patterns((1, 4)):
        counts = gibbs_vertex_counts(pat)
        assert sum(counts.as_tuple()) == 2 * 4


def test_gibbs_window_choice_cancels(params):
    # stated window [1, lam_max] x [1, k] vs full-grid plain vertex weights:
    # ratios must agree (the excluded column contributes a constant factor)
    pats = enumerate_gt_patterns((2, 5))
    win = np.array([gibbs_pattern_weight(p_, params) for p_ in pats])
    full = np.array([abs(complex(collection_weight(
        pattern_to_collection(p_), (params.u,) * 2, params))) for p_ in pats])
    ratio = win / full
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_conditional_k2_weights_match_enumeration(params):
    w_low, w_mid, w_high = conditional_k2_weights(params)
    pats = enumerate_gt_patterns((2, 5))
    raw = {p_.rows[0][0]: gibbs_pattern_weight(p_, params) for p_ in pats}
    base = raw[3]
    assert raw[2] / base == pytest.approx(w_low / w_mid, rel=1e-12)
    assert raw[4] / base == pytest.approx(1.0, rel=1e-12)
    assert raw[5] / base == pytest.approx(w_high / w_mid, rel=1e-12)


def test_conditional_sampler_k1_trivial(params):
    pat = conditional_lower_rows((4,), params, seed=0)
    assert pat.rows == ((4,),)


def test_conditional_sampler_frequencies_k2(params):
    lam = (2, 1)
    pats = enumerate_gt_patterns(tuple(sorted(lam)))
    weights = np.array([gibbs_pattern_weight(p_, params) for p_ in pats])
    probs = weights / weights.sum()
    n = 100_000
    rng = np.random.default_rng(123)
    counts = {p_.rows[0]: 0 for p_ in pats}
    for _ in range(n):
        pat = conditional_lower_rows(lam, params, rng=rng)
        counts[pat.rows[0]] += 1
    for p_, prob in zip(pats, probs):
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(counts[p_.rows[0]] - n * prob) < 3.5 * sigma


def test_conditional_interlacing_always(params):
    rng = np.random.default_rng(5)
    for _ in range(50):
        pat = conditional_lower_rows((7, 4, 2), params, rng=rng)
        assert pat.top == (2, 4, 7)  # validated on construction


def test_fast_k2_conditional_matches_generic(params):
    tops = np.array([[5, 2]] * 200_000)
    rng = np.random.default_rng(11)
    cs = sample_conditional_k2(tops, params, rng)
    assert cs.min() >= 2 and cs.max() <= 5
    pats = enumerate_gt_patterns((2, 5))
    weights = np.array([gibbs_pattern_weight(p_, params) for p_ in pats])
    probs = weights / weights.sum()
    for c_val, prob in zip((2, 3, 4, 5), probs):
        n = len(tops)
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(np.sum(cs == c_val) - n * prob) < 3.5 * sigma


def test_gibbs_consistency_marginal(params):
    # top_row_pmf(1, M) should match the law of the middle entry when a k=2
    # top row is drawn exactly and the lower row is Gibbs-resampled
    M = 8
    pmf2 = top_row_pmf(2, M, params)
    pmf1 = top_row_pmf(1, M, params)
    rng = np.random.default_rng(17)
    n = 200_000
    idx = pmf2.sample(rng, n)
    tops = np.asarray(pmf2.atoms, dtype=np.int64)[idx]
    mids = sample_conditional_k2(tops, params, rng)
    for atom, prob in zip(pmf1.atoms, pmf1.probs):
        if prob < 5e-4:
            continue
        got = np.sum(mids == atom[0])
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(got - n * prob) < 4.0 * sigma


def test_pattern_to_collection_roundtrip(params):
    for pat in enumerate_gt_patterns((1, 3, 6))[:5]:
        pc = pattern_to_collection(pat)
        pc.validate()
        for j in range(1, pat.k + 1):
            assert pc.cross_section(j) == tuple(sorted(pat.rows[j - 1],
                                                       reverse=True))
