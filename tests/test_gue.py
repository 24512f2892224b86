import math

import numpy as np
import pytest

from sixvertexlab import gue
from sixvertexlab.core import ModelParams
from sixvertexlab.gue import (compare_corners_limit, corners_batch,
                              hermite_density, hermite_marginal_cdfs,
                              ks_distance, ks_two_sample, normal_cdf)


def from_samples(samples) -> np.ndarray:
    return np.sort(np.asarray(samples, dtype=float))


def accept_params():
    # acceptance parameter point: u = 1.5 s, u v = 0.7 (well inside the
    # admissible region, where desk-scale M already sits close to the limit)
    u = 1.5 * 2 ** 0.5
    return ModelParams(q=0.5, u=u, v=0.7 / u)


def test_corners_sample_structure():
    # level r holds the r ascending eigenvalues of the r x r minor, and
    # consecutive levels interlace
    levels = corners_batch(4, 1, np.random.default_rng(0))
    assert [level.shape for level in levels] == [(1, r) for r in range(1, 5)]
    for lower, upper in zip(levels, levels[1:]):
        assert np.all(np.diff(upper) > 0)
        assert np.all((upper[:, :-1] <= lower) & (lower <= upper[:, 1:]))


def twin_stack(k: int, n: int, seed: int):
    """The (n, k, k) matrices corners_batch(k, n, default_rng(seed)) draws,
    rebuilt in the documented order from a twin generator, and that twin."""
    twin, scale = np.random.default_rng(seed), math.sqrt(0.5)
    x = np.zeros((n, k, k), dtype=complex)
    x[:, range(k), range(k)] = twin.normal(size=(n, k))
    for i in range(k):
        for j in range(i + 1, k):
            x[:, i, j] = (twin.normal(scale=scale, size=n)
                          + 1j * twin.normal(scale=scale, size=n))
            x[:, j, i] = np.conj(x[:, i, j])
    return x, twin


def interlaces(lower: np.ndarray, upper: np.ndarray) -> bool:
    return bool(np.all((upper[:, :-1] <= lower) & (lower <= upper[:, 1:])))


def test_closed_form_minors_match_eigvalsh():
    # the same draws in the same order: level 1 is the first diagonal entry
    # bit for bit, levels 2 and 3 match LAPACK on the same minors (the worst
    # level-3 difference seen over 5e6 draws is below 5e-14), each level
    # interlaces with the next exactly and levels 2-3 strictly increase
    n = 100_000
    levels = corners_batch(3, n, np.random.default_rng(24))
    x, _ = twin_stack(3, n, 24)
    assert np.array_equal(levels[0], x[:, :1, 0].real)
    lapack = [np.linalg.eigvalsh(x[:, :r, :r]) for r in (2, 3)]
    assert np.max(np.abs(levels[1] - lapack[0])) <= 1e-14
    assert np.max(np.abs(levels[2] - lapack[1])) <= 1e-13
    assert interlaces(levels[0], levels[1])
    assert interlaces(levels[1], levels[2])
    assert np.all(np.diff(levels[1]) > 0) and np.all(np.diff(levels[2]) > 0)


def test_corners_batch_draws_in_documented_order():
    # the diagonal, then real and imaginary parts of each (i, j), i < j, in
    # row order; levels 1-3 equal the closed forms of the matrices rebuilt
    # from a twin generator, levels r >= 4 eigvalsh of them, and both
    # generators end in the same state
    n = 1000
    for k in range(1, 5):
        rng = np.random.default_rng(40 + k)
        levels = corners_batch(k, n, rng)
        x, twin = twin_stack(k, n, 40 + k)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert len(levels) == k
        assert np.array_equal(levels[0], x[:, :1, 0].real)
        if k > 1:
            assert np.array_equal(levels[1], gue._pair_spectrum(
                x[:, 0, 0].real, x[:, 1, 1].real, x[:, 0, 1]))
        if k > 2:
            diag = x[:, range(3), range(3)].real
            assert np.array_equal(levels[2], gue._triple_spectrum(
                diag, x[:, 0, 1], x[:, 0, 2], x[:, 1, 2], levels[1]))
            assert np.max(np.abs(levels[2] - np.linalg.eigvalsh(
                x[:, :3, :3]))) <= 1e-13
        for r in range(4, k + 1):
            assert np.array_equal(levels[r - 1],
                                  np.linalg.eigvalsh(x[:, :r, :r]))


def test_pair_spectrum_degenerate_inputs():
    # a = d with b = 0 (zero denominator), and |b| = 1e-20 with a - d = 1
    with np.errstate(all="raise"):
        got = gue._pair_spectrum(np.array([0.3, 1.0]), np.array([0.3, 0.0]),
                                 np.array([0j, 1e-20 + 0j]))
    assert np.all(np.isfinite(got))
    assert got[0].tolist() == [0.3, 0.3]
    assert got[1, 0] <= 0.0 < 1.0 <= got[1, 1]


def test_triple_spectrum_degenerate_inputs():
    # scalar minors (q = 0, a 0/0 ratio), a zero border with c in each of
    # level 2's brackets and on its top edge (an exact double root), and a
    # tied level 2 (a = d, b = 0, so level 3's middle root is a)
    a, d, b = 1.0, -0.5, 0.3 + 0.4j
    mu = gue._pair_spectrum(np.array([a]), np.array([d]), np.array([b]))[0]
    cases = [((s, s, s), 0, 0, 0) for s in (0.0, 1.5, -2.0)]
    cases += [((a, d, c), b, 0, 0) for c in (0.25, 3.0, -2.0, mu[1])]
    cases += [((0.3, 0.3, c), 0, x02, x12) for c, x02, x12 in
              [(0.9, 0.2 + 0.1j, -0.3j), (0.3, 0.5, 0.5), (-1.0, 1e-3, 0)]]
    diag = np.array([c[0] for c in cases])
    x01, x02, x12 = (np.array([c[i] for c in cases], dtype=complex)
                     for i in (1, 2, 3))
    with np.errstate(all="raise"):
        pair = gue._pair_spectrum(diag[:, 0], diag[:, 1], x01)
        got = gue._triple_spectrum(diag, x01, x02, x12, pair)
    assert np.all(np.isfinite(got)) and np.all(np.diff(got) >= 0)
    assert interlaces(pair, got)
    assert np.array_equal(got[:3], diag[:3])
    assert np.all(got[-3:, 1] == 0.3)
    # the zero border gives back {mu_1, mu_2, c}: to rounding where c stands
    # apart, to about sqrt(eps) q at the double root c = mu_2
    border = np.sort(np.column_stack([pair[3:7], diag[3:7, 2]]), axis=1)
    assert np.max(np.abs(got[3:6] - border[:3])) <= 1e-14
    assert np.max(np.abs(got[6] - border[3])) <= 1e-7


def test_gue_k1_is_standard_normal():
    rng = np.random.default_rng(21)
    vals = corners_batch(1, 100_000, rng)[0][:, 0]
    assert abs(np.var(vals) - 1.0) < 0.02
    assert abs(np.mean(vals)) < 0.02


def test_interlacing_zero_violations_k4():
    rng = np.random.default_rng(22)
    levels = corners_batch(4, 100_000, rng)
    for r in range(3):
        low, up = levels[r], levels[r + 1]
        ok = (up[:, : r + 1] <= low) & (low <= up[:, 1: r + 2])
        assert np.all(ok)


def test_hermite_density_examples():
    assert hermite_density((0.3,), 1) == pytest.approx(
        math.exp(-0.045) / math.sqrt(2 * math.pi))
    assert hermite_density((1.0, -1.0), 2) == 0.0  # out of order
    t = np.linspace(-8, 8, 1201)
    h = t[1] - t[0]
    total = sum(hermite_density((x,), 1) for x in t) * h
    assert total == pytest.approx(1.0, abs=1e-6)
    grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
    assert hermite_density(grid, 2).sum() * h * h == pytest.approx(1.0,
                                                                   abs=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hermite_density_over_arrays(k):
    # an (n, k) array gives each row's value, 0.0 on rows out of order, and
    # one point still gives a Python float
    xs = np.random.default_rng(17 + k).normal(size=(200, k))
    xs[:100].sort(axis=1)
    if k > 1:
        xs[100:110, 1] = xs[100:110, 0]   # ties are out of order too
    got = hermite_density(xs, k)
    assert got.shape == (200,)
    want = [hermite_density(tuple(row), k) for row in xs.tolist()]
    assert all(type(w) is float for w in want)
    assert got.tolist() == want
    ordered = (np.diff(xs, axis=1) > 0).all(axis=1)
    assert (got[~ordered] == 0.0).all() and (got[ordered] > 0.0).all()
    assert ordered[:100].all() and ordered[100:110].all() == (k == 1)
    assert hermite_density(xs.reshape(20, 10, k), k).shape == (20, 10)
    with pytest.raises(ValueError):
        hermite_density(xs[:, :k - 1], k)


def test_top_density_matches_sampler_k2():
    rng = np.random.default_rng(23)
    levels = corners_batch(2, 100_000, rng)
    t, cdfs = hermite_marginal_cdfs(2)
    for coord in (0, 1):
        emp = from_samples(levels[1][:, coord])
        ks = ks_distance(emp, lambda x, c=cdfs[coord]: np.interp(x, t, c),
                         np.ones(len(emp)))
        assert ks < 0.01


def test_ks_distance_self_consistency():
    rng = np.random.default_rng(29)
    passes = 0
    trials = 60
    n = 2000
    for _ in range(trials):
        emp = from_samples(rng.normal(size=n))
        if ks_distance(emp, normal_cdf, np.ones(n)) < 3 * 1.36 / math.sqrt(n):
            passes += 1
    assert passes / trials >= 0.99


def test_ks_point_mass_closed_form():
    got = ks_distance([0.7], normal_cdf, [1.0])
    assert got == pytest.approx(max(normal_cdf(0.7), 1 - normal_cdf(0.7)),
                                rel=1e-12)


def test_ks_glivenko_cantelli_trend():
    rng = np.random.default_rng(31)
    dists = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        emp = from_samples(rng.normal(size=n))
        dists.append(ks_distance(emp, normal_cdf, np.ones(n)))
    assert dists[0] > dists[1] > dists[2]


def test_ks_rejects_mismatched_weights():
    for weights in ([1.0], [[1.0, 1.0]], np.ones(3)):
        with pytest.raises(ValueError):
            ks_distance([0.1, 0.7], normal_cdf, weights)
    with pytest.raises(ValueError):
        ks_distance([], normal_cdf, [])


def test_ks_two_sample_identical():
    a = np.arange(1000) / 1000
    assert ks_two_sample(a, a) == 0.0


def ks_two_sample_merged(a, b) -> float:
    """Both empirical CDFs at every point of both samples, one binary search
    per point: the reference the distinct-value evaluation must equal."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / len(a)
    fb = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def test_ks_two_sample_equals_merged_evaluation():
    rng = np.random.default_rng(31)
    lattice = rng.integers(0, 40, 5000) / 7.0
    cases = [
        (lattice, 3.0 + 2.0 * rng.normal(size=3000)),     # ties vs none, n != m
        (lattice, rng.integers(0, 60, 777) / 11.0),       # ties on both sides
        (np.full(50, 0.25), np.full(80, 0.25)),           # all tied, same value
        (np.full(50, 0.25), rng.integers(0, 3, 70) / 4.0),
        ([0.0, -0.0, 1.0], [-0.0, 0.5]),                  # signed zeros tie
        ([0.5], [0.5]), ([0.5], [0.7]), ([0.5], rng.normal(size=9)),
        (rng.normal(size=1000), 0.1 + rng.normal(size=1001)),
    ]
    for a, b in cases:
        for x, y in ((a, b), (b, a)):
            got = ks_two_sample(x, y)
            assert type(got) is float
            assert got == ks_two_sample_merged(x, y)
        assert ks_two_sample(a, a) == 0.0


def test_ks_two_sample_disjoint_and_empty():
    assert ks_two_sample([0.1, 0.2, 0.2], [0.3, 5.0]) == 1.0
    assert ks_two_sample([3.0], [-1.0, -2.0]) == 1.0
    for a, b in (([], [0.1]), ([0.1], []), ([], [])):
        with pytest.raises(ValueError):
            ks_two_sample(a, b)


def test_compare_k1_trend():
    p = accept_params()
    rep = compare_corners_limit(1, (50, 100, 200, 400), p, 0, seed=101)
    ks_by_m = {r["M"]: r["ks"] for r in rep["rows"]}
    assert ks_by_m[50] > ks_by_m[100] > ks_by_m[200] > ks_by_m[400]
    assert ks_by_m[400] < 0.05
    assert rep["monotone_in_M"]


def test_compare_k2_coordinates():
    p = accept_params()
    rep = compare_corners_limit(2, (100, 400), p, 50_000, seed=102)
    final = {r["coordinate"]: r["ks"] for r in rep["rows"] if r["M"] == 400}
    assert final["Y[2,1]"] < 0.08
    assert final["Y[2,2]"] < 0.08
    assert final["Y[1,1]"] < 0.08
    assert rep["interlace_violations"] == 0
    assert rep["monotone_in_M"]


def test_compare_k3_smoke():
    # all six coordinates present, lower rows Gibbs-sampled, zero violations
    p = ModelParams(q=0.5, u=2.0, v=0.25)
    rep = compare_corners_limit(3, (10,), p, 3000, seed=103)
    coords = {r["coordinate"] for r in rep["rows"]}
    assert coords == {"Y[1,1]", "Y[2,1]", "Y[2,2]", "Y[3,1]", "Y[3,2]",
                      "Y[3,3]", "trace[3]"}
    assert rep["interlace_violations"] == 0


def test_interlace_count_sees_shifted_lower_rows(monkeypatch):
    # lower rows drawn for the top shifted up by its largest part never
    # interlace with the sampled top, so every sample is a violation
    p = ModelParams(q=0.5, u=2.0, v=0.25)
    real = gue.sample_lower_rows

    def shifted(tops_desc, params, rng):
        return real(tops_desc + tops_desc[:, :1], params, rng)

    monkeypatch.setattr(gue, "sample_lower_rows", shifted)
    assert compare_corners_limit(3, (5,), p, 100,
                                 seed=104)["interlace_violations"] == 100
    assert compare_corners_limit(2, (20,), p, 100,
                                 seed=105)["interlace_violations"] == 100
