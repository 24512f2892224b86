"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria 1, 3-6 and 8 run the check functions of
sixvertexlab.checks, which the CLI runs too, at the seeds and sizes pinned
here.  Tolerances are pinned here and nowhere else; the corners
comparison runs at a parameter point deep in the admissible region (its
finite-M thresholds have no limiting rate behind them and are calibrated
artifact choices).
"""

import math
import time

import numpy as np

from sixvertexlab import asymptotics as asy
from sixvertexlab import boundary as bnd
from sixvertexlab import checks, gue, measure, paths, symfunc
from sixvertexlab.core import ModelParams, strict_atoms

CANONICAL = ModelParams(q=0.5, u=2.0, v=0.25)
GUE_POINT = ModelParams(q=0.5, u=1.5 * 2 ** 0.5, v=0.7 / (1.5 * 2 ** 0.5))


def _report(num: int, name: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_route_agreement():
    t0 = time.time()
    worst = checks.route_agreement(checks.random_points(1001, 50),
                                   (1.0, 1.17, 1.31), 6)[2]
    elapsed = time.time() - t0
    _report(1, "route agreement", worst < 1e-10 and elapsed < 60,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_cauchy_identity():
    t0 = time.time()
    p = CANONICAL
    worst = 0.0
    tails = []
    for N, K in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        us = tuple(p.u * (1 + 0.13 * i) for i in range(N))
        vs = tuple(p.v * (1 - 0.2 * j) for j in range(K))
        rep = symfunc.verify_cauchy(N, K, us, vs, p, tol=1e-10)
        worst = max(worst, rep["rel_error"])
        tails.append(rep["tail_bound"])
    elapsed = time.time() - t0
    _report(2, "Cauchy identity", worst < 1e-8 and elapsed < 60
            and all(t < 1e-8 for t in tails),
            f"max rel err {worst:.2e}, tails certified, {elapsed:.1f}s")


def test_criterion_03_geometric_specialization():
    worst = checks.geometric_specialization(
        [CANONICAL] + checks.random_points(1003, 4), 4)[2]
    _report(3, "geometric specialization", worst < 1e-10,
            f"max rel err {worst:.2e}")


def test_criterion_04_counting():
    bad, _, _, census = checks.counting((1, 2, 3, 4), 8)
    _report(4, "counting formula", bad == 0,
            f"{census['signatures']} signatures, exact big-integer equality")


def test_criterion_05_typical_weight():
    lams = [lam for k in (1, 2, 3) for lam in strict_atoms(k, 0, 8).tolist()]
    worst = checks.typical_weight([CANONICAL] + checks.random_points(1005, 2),
                                  lams)[2]
    _report(5, "typical collection weight", worst < 1e-12,
            f"max rel err {worst:.2e}")


def test_criterion_06_boundary_function():
    worst = checks.f_contour_vs_direct(CANONICAL)[2]
    worst_r = checks.f_radius_independence(CANONICAL)[2]
    _report(6, "boundary function routes", worst < 1e-7 and worst_r < 1e-7,
            f"contour-vs-direct {worst:.2e}, radius change {worst_r:.2e}")


def test_criterion_07_partition_function():
    p = CANONICAL
    k, M, cap = 2, 4, 48
    f_tab = bnd.f_direct_batch(k, cap, M, p)
    total = 0.0
    for lam in sorted(map(tuple, strict_atoms(k, 1, cap).tolist())):
        for pc in paths.enumerate_F_collections((), lam, k):
            w = complex(paths.collection_weight(pc, (p.u,) * k, p)).real
            total += w * f_tab[lam]
    z = measure.partition_Z(k, M, p)
    err_sum = abs(total - z) / z
    worst_mass = 0.0
    for kk, MM in [(1, 50), (2, 50), (2, 30)]:
        pmf = measure.top_row_pmf(kk, MM, p, tol=1e-6)
        worst_mass = max(worst_mass, abs(pmf.total_mass - 1.0))
    _report(7, "partition function", err_sum < 1e-8 and worst_mass < 1e-6,
            f"path-sum rel err {err_sum:.2e}, pmf mass err {worst_mass:.2e}")


def test_criterion_08_constants_and_critical_points():
    signs_ok = checks.sign_pattern(checks.random_points(1008, 50))[2] == 0
    crit_ok = True
    for point in [CANONICAL] + checks.random_points(1009, 19):
        for name, (_, ref, err, _) in checks.critical_points(point).items():
            # G'' is checked relative to 2c, the rest absolutely
            crit_ok &= err < (1e-4 * abs(ref) if name == "G''(u)-2c"
                              else 1e-6)
    _report(8, "constants and critical points", signs_ok and crit_ok,
            "signs (+,-,+,+) on 50 points; finite-difference suite on 20")


def test_criterion_09_descent():
    prof = asy.descent_profile(CANONICAL)
    ok = (prof["max_re_G"] <= 1e-12 and prof["argmax_is_u"]
          and prof["delta_bound_outside"] < 0.0)
    _report(9, "descent along the contour", ok,
            f"max Re G = {prof['max_re_G']:.1e} at u, "
            f"delta = {prof['delta_bound_outside']:.3e}")


def test_criterion_10_bm_convergence():
    t0 = time.time()
    p = CANONICAL
    lim1 = asy.bm_limit((0.0,), 1, p)
    errs1 = [abs(asy.B_M_contour((0.0,), M, p) - lim1)
             for M in (100, 400, 1600)]
    xs = (-1.0, 1.0)
    lim2 = asy.bm_limit(xs, 2, p)
    errs2 = [abs(asy.B_M_contour(xs, M, p) - lim2) for M in (100, 400, 1600)]
    elapsed = time.time() - t0
    ok = (errs1[0] > errs1[1] > errs1[2] and errs1[2] < 0.05 * abs(lim1)
          and errs2[2] < 0.10 * abs(lim2) and elapsed < 600)
    _report(10, "boundary-factor limit", ok,
            f"k=1 errs {[f'{e:.1e}' for e in errs1]}, "
            f"k=2 final rel {errs2[2] / lim2:.3f}, {elapsed:.1f}s")


def test_criterion_11_am_convergence():
    p = CANONICAL
    xs = (-1.0, 1.0)
    lim = asy.am_limit(xs)
    cst = asy.constants(p)
    errs = []
    vals = []
    for M in (100, 400, 1600):
        lam = asy.scaled_parts(xs, M, cst.a, 1.0)
        val = asy.A_M(lam, M, p)
        vals.append(abs(val))
        errs.append(abs(val - lim))
    ok = errs[0] > errs[1] > errs[2] and max(vals) < 10.0
    _report(11, "row-factor limit", ok,
            f"errs {[f'{e:.2e}' for e in errs]}, uniform bound "
            f"{max(vals):.2f}")


def test_criterion_12_corners_limit():
    t0 = time.time()
    p = GUE_POINT
    rep1 = gue.compare_corners_limit(1, (50, 100, 200, 400), p, 0, seed=2024)
    ks1 = {r["M"]: r["ks"] for r in rep1["rows"]}
    ok1 = (rep1["monotone_in_M"] and ks1[400] < 0.05
           and ks1[50] > ks1[100] > ks1[200] > ks1[400])
    rep2 = gue.compare_corners_limit(2, (100, 400), p, 100_000, seed=2025)
    final2 = {r["coordinate"]: r["ks"] for r in rep2["rows"] if r["M"] == 400}
    ok2 = all(final2[c] < 0.08 for c in ("Y[2,1]", "Y[2,2]", "Y[1,1]"))
    ok3 = rep2["interlace_violations"] == 0
    elapsed = time.time() - t0
    _report(12, "corners-process limit", ok1 and ok2 and ok3
            and elapsed < 1800,
            f"k=1 KS(400)={ks1[400]:.4f}, k=2 KS "
            f"{ {c: round(v, 4) for c, v in final2.items()} }, {elapsed:.0f}s")


def test_criterion_13_gibbs_conditional(census):
    p = CANONICAL
    n = 100_000
    ok = True
    for lam in [(2, 1), (5, 2), (4, 2, 1)]:
        pats, _, _, weights = census(lam[::-1], p)
        probs = weights / weights.sum()
        draws = measure.conditional_lower_rows_batch(
            lam, p, n, np.random.default_rng(131))
        counts = {}
        for pat in draws:
            key = pat.rows[:-1]
            counts[key] = counts.get(key, 0) + 1
        for pat, prob in zip(pats, probs):
            got = counts.get(pat.rows[:-1], 0)
            sigma = math.sqrt(n * prob * (1 - prob))
            if abs(got - n * prob) > 3.0 * max(sigma, 1.0):
                ok = False
    _report(13, "Gibbs conditional sampler", ok,
            "3-sigma multinomial bands at 1e5 draws, k in {2, 3}")


def test_criterion_14_gue_reference(hermite):
    rng = np.random.default_rng(14)
    levels = gue.corners_batch(4, 100_000, rng)
    interlace_ok = True
    for r in range(3):
        low, up = levels[r], levels[r + 1]
        if not np.all((up[:, : r + 1] <= low) & (low <= up[:, 1: r + 2])):
            interlace_ok = False
    var = float(np.var(gue.corners_batch(1, 100_000,
                                         np.random.default_rng(15))[0]))
    var_ok = abs(var - 1.0) < 0.02
    t = np.linspace(-8, 8, 1601)
    h = t[1] - t[0]
    int1 = sum(gue.hermite_density((x,), 1) for x in t) * h
    x1, x2 = t[:, None], t[None, :]
    joint = np.where(x1 < x2, (x1 - x2) ** 2
                     * np.exp(-(x1 ** 2 + x2 ** 2) / 2), 0.0) / (2 * math.pi)
    int2 = joint.sum() * h * h
    dens_ok = abs(int1 - 1.0) < 1e-6 and abs(int2 - 1.0) < 1e-6
    det_ok = True
    rng2 = np.random.default_rng(16)
    for _ in range(5):
        xs = np.sort(rng2.normal(size=3))
        mat = [[hermite(3 - j, xs[i]) for j in range(1, 4)]
               for i in range(3)]
        det = np.linalg.det(np.array(mat))
        vand = ((xs[0] - xs[1]) * (xs[0] - xs[2]) * (xs[1] - xs[2]))
        if abs(det - vand) > 1e-10 * max(1.0, abs(vand)):
            det_ok = False
    _report(14, "GUE reference", interlace_ok and var_ok and dens_ok and det_ok,
            f"var={var:.4f}, density integrals 1 +/- 1e-6, "
            f"Hermite determinant = Vandermonde")


def test_criterion_15_reproducibility(tmp_path):
    import json

    from sixvertexlab.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_grid": [100, 400]}))
    outs = []
    for tag, threads in (("a", "1"), ("b", "4")):
        rc = main(["bm-converge", "--seed", "99", "--threads", threads,
                   "--out", str(tmp_path / tag), "--config", str(cfg)])
        assert rc == 0
        with open(tmp_path / tag / "bm-converge" / "bm_convergence.csv") as fh:
            outs.append(fh.read())
    csv_ok = outs[0] == outs[1]
    outs = []
    for tag, threads in (("c", "1"), ("d", "3")):
        rc = main(["sample", "--seed", "99", "--threads", threads,
                   "--out", str(tmp_path / tag)])
        assert rc == 0
        with open(tmp_path / tag / "sample" / "samples.csv") as fh:
            outs.append(fh.read())
    _report(15, "reproducibility", csv_ok and outs[0] == outs[1],
            "byte-identical CSVs across thread counts at fixed seed")
