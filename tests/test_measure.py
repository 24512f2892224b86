import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sixvertexlab import measure, quadrature
from sixvertexlab.core import Atoms, ModelParams, Signature, strict_atoms
from sixvertexlab.measure import (HalfStrictGTPattern,
                                  conditional_lower_rows, conditional_k2_weights,
                                  interlace_violations, partition_Z,
                                  sample_conditional_k2, sample_lower_rows,
                                  sample_top_row, top_row_pmf)
from sixvertexlab.paths import collection_weight
from sixvertexlab.symfunc import F_eval
from sixvertexlab.weights import six_vertex_weights


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
    f_tab = f_direct_batch(k, cap, M, params)
    total = 0.0
    for lam in sorted(map(tuple, strict_atoms(k, 1, cap).tolist())):
        for pc in enumerate_F_collections((), lam, k):
            w = complex(collection_weight(pc, (params.u,) * k, params)).real
            total += w * f_tab[lam]
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


@pytest.mark.parametrize("k", [2, 3])
def test_direct_F_table_builds_one_row(params, count_strict_rows, k):
    # the k plain rows share one operator, whose tables are built once
    counts = count_strict_rows(measure)
    measure._F_transfer_window(k, 12, params)
    assert counts == {"built": 1, "applied": k, "weights": 5}


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


def test_pmf_k3_blocks_give_a_fresh_window_the_same_bits(params):
    # (3, 5)'s final window passes its first core's rows: the extended
    # window takes a core over two blocks of exponents and expands every
    # entry again, as a fresh window of that width does, so both have the
    # same bits; (3, 10)'s windows all fit one core
    for M in (5, 10):
        pmf = top_row_pmf(3, M, params)
        assert np.array_equal(pmf.probs, _fresh_window(pmf))


def _count_memo_builds(monkeypatch):
    """Per node count of the contour route: the cross kernels built (by
    measure or inside quadrature), the kernel factors built, and the
    exponents given rows; per node count and row count: the k = 3 cores
    built."""
    counts = {"kernel": Counter(), "factor": Counter(), "rows": Counter(),
              "core": Counter()}

    def counted(name, module, fn, size):
        def wrapped(z, *args):
            counts[name][len(z)] += size(args)
            return fn(z, *args)
        monkeypatch.setattr(module, fn.__name__, wrapped)

    for module in (measure, quadrature):
        counted("kernel", module, module.cross_kernel, lambda args: 1)
    counted("factor", measure, measure.kernel_factor, lambda args: 1)
    counted("rows", measure, measure.exponent_rows, lambda args: len(args[1]))
    init = quadrature.WindowCore.__init__

    def built(self, rows, size, kern, *args):
        counts["core"][len(kern), len(rows)] += 1
        init(self, rows, size, kern, *args)
    monkeypatch.setattr(quadrature.WindowCore, "__init__", built)
    return counts


@pytest.mark.parametrize("k, M", [(2, 100), (3, 5), (3, 10), (3, 20)])
def test_pmf_memo_builds_each_node_set_once(params, monkeypatch, k, M):
    # every node count builds its kernel (and k = 3 kernel factor) once per
    # pmf; at k <= 2 it takes each exponent's row once over all extensions,
    # at k = 3 one core, with its rows, per core size the windows reach:
    # the least multiple of a block of exponents from lo that holds the
    # window ((3, 5) reaches two sizes, so every node set builds twice)
    counts = _count_memo_builds(monkeypatch)
    calls = _record_windows(monkeypatch)
    pmf = top_row_pmf(k, M, params)
    lo, hi = pmf.window
    assert len(calls) >= 3 and len({lo for lo, _ in calls}) == 1
    assert counts["kernel"] and set(counts["kernel"].values()) == {1}
    if k < 3:
        assert counts["factor"] == counts["core"] == Counter()
        assert counts["rows"] == {n: hi - lo + 1 for n in counts["kernel"]}
        return
    assert counts["factor"] == counts["kernel"]
    block = measure.EXPONENT_BLOCK * measure._window_step(M, params)
    sizes = {-(-(b - a + 1) // block) * block for a, b in calls}
    assert len(sizes) == (2 if M == 5 else 1)
    assert counts["rows"] == {n: sum(sizes) for n in counts["kernel"]}
    assert counts["core"] == Counter({(n, size): 1 for n in counts["kernel"]
                                      for size in sizes})


@pytest.mark.parametrize("k, M", [(1, 20), (2, 100), (3, 10)])
def test_pmf_gathers_Fhat_from_a_gap_table(params, monkeypatch, k, M):
    # F_scaled_closed sees the C(W - 1, k - 1) gap tuples of each window
    # of width W, not its atoms, and the Fhat gathered from them has the
    # closed form's bits at every atom: window integrals of 1 leave Fhat as
    # the law of the window [3, 40]
    sizes, closed = [], measure.F_scaled_closed

    def counted(mu, p):
        sizes.append(len(mu))
        return closed(mu, p)

    monkeypatch.setattr(measure, "F_scaled_closed", counted)
    with monkeypatch.context() as patch:
        patch.setattr(measure, "_ic_window", lambda k, lo, hi, *args:
                      np.ones(math.comb(hi - lo + 1, k)))
        atoms, fhat = measure._pmf_window(k, M, params, 3, 40, "contour", {})
    want = closed(atoms, params)
    assert np.array_equal(fhat.view(np.int64), want.view(np.int64))
    assert sizes == [math.comb(37, k - 1)]
    sizes.clear()
    calls = _record_windows(monkeypatch)
    top_row_pmf(k, M, params)
    assert len(calls) >= 3
    assert sizes == [math.comb(b - a, k - 1) for a, b in calls]


def edge_point(q, u_over_s, uv):
    """The point (q, u/s, uv) of the model's parameters."""
    u = u_over_s * q ** -0.5
    return ModelParams(q=q, u=u, v=uv / u)


GUE_COMPARE = edge_point(0.5, 1.5, 0.7)


def test_pmf_window_grows_only_upward(monkeypatch):
    # k = 2, M = 400 at the gue-compare point: lo stays at the first edge and
    # hi moves up one step, so each node set builds its kernel once and
    # gives each exponent its row once; the windows and atoms are pinned
    counts = _count_memo_builds(monkeypatch)
    calls = _record_windows(monkeypatch)
    pmf = top_row_pmf(2, 400, GUE_COMPARE)
    assert calls == [(139, 819), (139, 917)]
    assert counts["kernel"] and set(counts["kernel"].values()) == {1}
    assert counts["rows"] == {n: 917 - 139 + 1 for n in counts["kernel"]}
    assert pmf.window == (139, 917)
    assert pmf.atoms == tuple((m1, m2) for m2 in range(139, 918)
                              for m1 in range(m2 + 1, 918))
    probs = np.asarray(pmf.probs)
    fresh = _fresh_window(pmf)
    assert np.max(np.abs(probs - fresh)) <= 1e-15 * np.max(probs)


@pytest.mark.parametrize("k, point", [
    (1, (0.5, 1.5, 0.7)), (2, (0.5, 1.5, 0.7)), (1, (0.05, 1.5, 0.5)),
    (1, (0.5, 4.0, 0.5)), (1, (0.5, 1.5, 0.9))],
    ids=["gue-compare-1", "gue-compare-2", "q0.05", "u4s", "uv0.9"])
def test_pmf_low_tail_below_lo_is_noise(k, point):
    # M = 400 laws whose lo is above 1: the window one step further down
    # puts atoms below lo of |mass| < 1e-12 (worst seen: 1.6e-13), so the
    # final mass check bounds the low tail that lo leaves out
    p = edge_point(*point)
    lo, hi = top_row_pmf(k, 400, p).window
    assert lo > 1
    atoms, probs = measure._pmf_window(
        k, 400, p, max(1, lo - measure._window_step(400, p)), hi, "contour",
        {})
    assert atoms[:, -1].min() < lo
    assert abs(probs[atoms[:, -1] < lo].sum()) < 1e-12


def test_pmf_k3_low_rank_matches_full_rank(params, monkeypatch):
    # the k = 3 window through the truncated kernel factor against the same
    # window through the exact factorisation U = K, V = I
    low = {M: top_row_pmf(3, M, params) for M in (10, 12)}
    monkeypatch.setattr(measure, "kernel_factor",
                        lambda kern: (kern, np.eye(len(kern))))
    for M, pmf in low.items():
        full = top_row_pmf(3, M, params)
        assert full.window == pmf.window and full.atoms == pmf.atoms
        diff = np.abs(np.asarray(full.probs) - np.asarray(pmf.probs))
        assert diff.max() <= 1e-13 * max(full.probs)


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


def test_pmf_contour_matches_direct_at_a_high_q(monkeypatch):
    # at q = 0.7 the cross kernel's rank passes the first sketch: the
    # 162-node set takes the exact factor and the wider ones a widened
    # sketch; the k = 3 law still matches the direct route to the floor
    ranks, factor = [], measure.kernel_factor

    def recorded(kern):
        U, V = factor(kern)
        ranks.append((len(kern), U.shape[1]))
        return U, V

    monkeypatch.setattr(measure, "kernel_factor", recorded)
    params = ModelParams(q=0.7, u=1.3, v=0.6)
    pc = top_row_pmf(3, 3, params, route="contour")
    pd = top_row_pmf(3, 3, params, route="direct")
    assert (162, 162) in ranks
    # a sketched rank above SKETCH_WIDTH needed more than the first block
    assert any(quadrature.SKETCH_WIDTH < r < n for n, r in ranks)
    assert pc.window == pd.window and pc.atoms == pd.atoms
    diff = np.abs(pc.probs - pd.probs)
    assert diff.max() <= 2e-13 * pd.probs.max()


def test_pmf_mass_normalization(params):
    for k, M in [(1, 30), (1, 50), (2, 30), (2, 50)]:
        pmf = top_row_pmf(k, M, params)
        assert abs(pmf.total_mass - 1.0) < 1e-6


def test_pmf_refuses_an_uncertified_tail(params, monkeypatch):
    # k = 1, M = 20 starts at (1, 42) and certifies its tail at (1, 72):
    # capped at 50 the window stops at (1, 52) with its mass inside tol but
    # no tail bound, and capped at 30 the first window (1, 42) already
    # passes the cap, so it is refused before any window is integrated
    for cap, mass_off in [(50, False), (30, True)]:
        monkeypatch.setattr(measure, "MAX_PART", cap)
        calls = _record_windows(monkeypatch)
        with pytest.raises(measure.MassDeficitError,
                           match="tail not certified") as exc:
            top_row_pmf(1, 20, params)
        report = exc.value.report
        assert (abs(report["mass"] - 1.0) > report["tol"]) is mass_off
        assert report["window"][1] >= cap
        assert not (report["gained"] < report["tol"] / 10
                    and report["tail_bound"] < report["tol"] / 2)
    assert report["gained"] == report["tail_bound"] == math.inf
    assert report["window"] == (1, 42) and calls == []


def test_pmf_refuses_a_window_past_the_atom_budget(params, monkeypatch):
    # k = 1, M = 20 starts at (1, 42) and certifies its tail at (1, 72):
    # with a budget of 60 atoms the window stops at (1, 52), the next one
    # holding 62, and with 41 the first window is refused unbuilt
    for budget, built, window, size in [
            (60, [(1, 42), (1, 52)], (1, 52), 62), (41, [], (1, 42), 42)]:
        monkeypatch.setattr(measure, "MAX_ATOMS", budget)
        calls = _record_windows(monkeypatch)
        with pytest.raises(measure.MassDeficitError,
                           match="tail not certified") as exc:
            top_row_pmf(1, 20, params)
        report = exc.value.report
        assert calls == built and report["window"] == window
        assert (report["atoms"], report["max_atoms"]) == (size, budget)
    assert report["gained"] == report["tail_bound"] == math.inf


FIRST = "refused the first window, before any window was built"


@pytest.mark.parametrize("budget, value, stop, atoms", [
    ("MAX_PART", 50, "stopped the window at part 52", 52),
    ("MAX_PART", 30, FIRST, 42),
    ("MAX_ATOMS", 60, "refused the next window", 62),
    ("MAX_ATOMS", 41, FIRST, 42)],
    ids=["part-stopped", "part-first", "atoms-next", "atoms-first"])
def test_pmf_refusal_names_its_budget(params, monkeypatch, budget, value,
                                      stop, atoms):
    # k = 1, M = 20 grows (1, 42), (1, 52), ...: the refusal names the one
    # budget that stopped it and the atoms of the window stopped at or
    # refused, which the report holds too
    monkeypatch.setattr(measure, budget, value)
    with pytest.raises(measure.MassDeficitError) as exc:
        top_row_pmf(1, 20, params)
    assert str(exc.value).startswith(f"top-row pmf tail not certified: "
                                     f"{budget} = {value} {stop} ({atoms} "
                                     f"atoms): ")
    assert exc.value.report["atoms"] == atoms


@pytest.mark.parametrize("k, M, p, window, size", [
    (2, 400, ModelParams(q=0.5, u=2.0, v=0.49), (6439, 14142), 29_671_956),
    (3, 50, edge_point(0.99, 1.5, 0.5), (1, 1091), 215_837_985)],
    ids=["uv0.98", "q0.99"])
def test_pmf_refuses_a_first_window_past_the_atom_budget(monkeypatch, k, M,
                                                        p, window, size):
    # the uv = 0.98 probe and q = 0.99's (3, 50): the first window alone
    # holds more than MAX_ATOMS atoms, so it is refused before any window
    # is built
    monkeypatch.setattr(measure, "_pmf_window",
                        lambda *args: pytest.fail("a window was built"))
    with pytest.raises(measure.MassDeficitError,
                       match="tail not certified") as exc:
        top_row_pmf(k, M, p)
    report = exc.value.report
    assert report["window"] == window and report["atoms"] == size
    assert size > report["max_atoms"] == measure.MAX_ATOMS


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


def test_sample_is_one_search_per_uniform(params):
    # the sorted search gives each uniform's own binary-search index, from
    # one rng.random(count), on laws whose cdf never goes down; atoms of
    # probability 0 (first, inner and last) are never drawn
    laws = [top_row_pmf(2, 8, params), top_row_pmf(1, 30, params),
            measure.TopRowPMF(1, 0, params, "direct", (1, 6),
                              strict_atoms(1, 1, 6),
                              [0.0, 0.2, 0.0, 0.0, 0.5, 0.3]),
            measure.TopRowPMF(2, 0, params, "direct", (1, 4),
                              strict_atoms(2, 1, 4),
                              [0.0, 0.1, 0.0, 0.4, 0.5, 0.0])]
    for law in laws:
        cdf = np.cumsum(law.probs)
        assert np.all(np.diff(cdf) >= 0)
        for count in (0, 1, 7, 100_000):
            rng = np.random.default_rng(count)
            twin = np.random.default_rng(count)
            got = law.sample(rng, count)
            want = np.searchsorted(cdf, twin.random(count) * cdf[-1],
                                   side="right").clip(0, len(cdf) - 1)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert rng.bit_generator.state == twin.bit_generator.state
        if np.any(law.probs == 0):
            assert np.all(law.probs[law.sample(rng, 100_000)] > 0)


@pytest.mark.parametrize("k, M", [(1, 40), (2, 100), (3, 10)])
def test_prob_finds_each_atom_by_its_rank(params, k, M):
    # the combinadic lookup against a dict of the atom tuples, bit for bit
    pmf = top_row_pmf(k, M, params)
    table = dict(zip(pmf.atoms, pmf.probs.tolist()))
    assert len(table) == len(pmf.atoms)
    for atom, prob in table.items():
        got = pmf.prob(atom)
        assert type(got) is float and got == prob
    assert pmf.prob(Signature(pmf.atoms[-1])) == table[pmf.atoms[-1]]


def test_prob_is_zero_off_the_atoms(params):
    pmf = top_row_pmf(2, 10, params)
    lo, hi = pmf.window
    assert pmf.prob((lo + 1, lo)) > 0.0
    for sig in [(hi + 1, lo), (hi, lo - 1), (lo + 1, lo + 1), (lo, lo + 1),
                (lo + 1,), (lo + 2, lo + 1, lo), ()]:
        assert pmf.prob(sig) == 0.0


def test_atoms_view_reads_as_tuples(params):
    pmf = top_row_pmf(2, 10, params)
    lo, hi = pmf.window
    rows = strict_atoms(2, lo, hi)
    tuples = tuple(map(tuple, rows.tolist()))
    view = pmf.atoms
    assert len(view) == len(tuples) == len(pmf.probs)
    assert view[0] == tuples[0] and view[-1] == tuples[-1]
    assert all(type(x) is int for x in view[3])
    assert view[2:9] == tuples[2:9] and view[::7] == tuples[::7]
    assert tuple(view) == tuples and view == tuples and tuples == view
    assert view != tuples[1:] and view == Atoms(rows)
    assert tuples[5] in view and set(view) == set(tuples)
    arr = np.asarray(view)
    assert arr.dtype == np.int64 and arr.shape == (len(tuples), 2)
    assert np.shares_memory(arr, np.asarray(pmf.atoms, dtype=np.int64))
    assert not np.shares_memory(arr, np.array(view))
    assert not arr.flags.writeable and not pmf.probs.flags.writeable
    assert pmf.probs.dtype == np.float64
    np.testing.assert_array_equal(arr, rows)


def test_pmf_holds_no_per_atom_objects(params):
    # the law keeps its atoms and probabilities as two arrays: building it
    # leaves a few hundred live blocks, not one per atom
    top_row_pmf(3, 20, params)   # node and Legendre caches
    tracemalloc.start()
    try:
        pmf = top_row_pmf(3, 20, params)
        snapshot = tracemalloc.take_snapshot()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count for stat in snapshot.statistics("filename"))
    arrays = np.asarray(pmf.atoms).nbytes + pmf.probs.nbytes
    assert len(pmf.atoms) > 50_000
    assert blocks < 1000
    assert current < arrays + (256 << 10)


def test_gt_pattern_validation():
    HalfStrictGTPattern(rows=((2,), (1, 3)))
    with pytest.raises(ValueError):
        HalfStrictGTPattern(rows=((5,), (1, 3)))  # no interlacing
    with pytest.raises(ValueError):
        HalfStrictGTPattern(rows=((1,), (2, 2)))  # not strict


def test_gt_enumeration_count(census, params):
    # k=2 top (l1, l2): middle entries are the integers in [l1, l2]
    pats = census((2, 6), params)[0]
    assert len(pats) == 5
    assert sorted(p.rows[0][0] for p in pats) == [2, 3, 4, 5, 6]


def test_gt_enumeration_order(census, params):
    # brute force: all strict rows of each length in the top's range, kept
    # when consecutive rows interlace, sorted by the rows read downward (the
    # order the conditional draws index into)
    def interlaces(lower, upper):
        return all(upper[i] <= x <= upper[i + 1] for i, x in enumerate(lower))

    for top in [(4,), (2, 5), (1, 3, 6), (1, 4, 6, 9)]:
        span = range(top[0], top[-1] + 1)
        chains = [rows + (top,) for rows in itertools.product(
            *(itertools.combinations(span, j) for j in range(1, len(top))))]
        want = sorted((c for c in chains
                       if all(interlaces(*pair) for pair in zip(c, c[1:]))),
                      key=lambda c: c[::-1])
        assert [p.rows for p in census(top, params)[0]] == want


def test_gibbs_counts_window_area(census, params):
    # the census window [1, top[-1]] x [1, k] holds k top[-1] vertices
    for top in [(1, 4), (1, 3, 6)]:
        counts = census(top, params)[2]
        assert (counts.sum(axis=1) == len(top) * top[-1]).all()


def test_gibbs_window_choice_cancels(census, params):
    # stated window [1, lam_max] x [1, k] vs full-grid plain vertex weights:
    # ratios must agree (the excluded column contributes a constant factor)
    _, pcs, _, win = census((2, 5), params)
    full = np.array([abs(complex(collection_weight(
        pc, (params.u,) * 2, params))) for pc in pcs])
    ratio = win / full
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_conditional_k2_weights_match_enumeration(census, params):
    w_low, w_mid, w_high = conditional_k2_weights(params)
    pats, _, _, weights = census((2, 5), params)
    raw = {p_.rows[0][0]: w for p_, w in zip(pats, weights)}
    base = raw[3]
    assert raw[2] / base == pytest.approx(w_low / w_mid, rel=1e-12)
    assert raw[4] / base == pytest.approx(1.0, rel=1e-12)
    assert raw[5] / base == pytest.approx(w_high / w_mid, rel=1e-12)


GIBBS_POINTS = [ModelParams(q=0.5, u=2.0, v=0.25),
                ModelParams(q=0.3, u=2.4, v=0.2)]


@pytest.mark.parametrize("p", GIBBS_POINTS, ids=["display", "q.3"])
def test_gibbs_weight_is_a_product_of_gap_factors(census, p):
    # each lower-row entry x between its upper neighbours L < R takes w2 at
    # x = L, w3 w4 at x = R and w5 w6 in between; the census weight over
    # that product is one constant per top
    w1, w2, w3, w4, w5, w6 = six_vertex_weights(p)
    for top in [(1, 3, 6), (2, 5, 9), (3, 4, 8), (1, 2, 3), (1, 4, 6, 9)]:
        ratios = []
        pats, _, _, weights = census(top, p)
        for pat, weight in zip(pats, weights):
            prod = 1.0
            for lower, upper in zip(pat.rows, pat.rows[1:]):
                for x, lo, hi in zip(lower, upper, upper[1:]):
                    prod *= w2 if x == lo else w3 * w4 if x == hi else w5 * w6
            ratios.append(weight / prod)
        assert np.allclose(ratios, ratios[0], rtol=1e-13, atol=0), top


@pytest.mark.parametrize("p", GIBBS_POINTS, ids=["display", "q.3"])
def test_lower_row_draws_invert_the_census_cdf(census, p):
    # one batch over every strict k = 3 top with parts in [1, 9] and every
    # k = 2 top with parts in [1, 30], 50 draws each in sample order: each
    # draw is the enumerator's pattern at which its uniform falls in the
    # cumulative census weights
    for k, hi in ((3, 9), (2, 30)):
        tops = np.array([t[::-1] for t in itertools.combinations(
            range(1, hi + 1), k)] * 50)
        got = np.hstack(sample_lower_rows(tops, p, np.random.default_rng(k)))
        u = np.random.default_rng(k).random(len(tops))
        want = np.empty_like(got)
        distinct, which = np.unique(tops, axis=0, return_inverse=True)
        for t, top in enumerate(distinct.tolist()):
            pats, _, _, weights = census(top[::-1], p)
            cdf = np.cumsum(weights)
            sel = which.reshape(-1) == t
            idx = np.searchsorted(cdf, u[sel] * cdf[-1], side="right")
            want[sel] = [np.hstack([row[::-1] for row in pats[i].rows[:-1]])
                         for i in np.minimum(idx, len(pats) - 1)]
        assert np.array_equal(got, want)


def test_lower_rows_refuse_k_above_3(params):
    with pytest.raises(ValueError, match="k <= 3"):
        conditional_lower_rows((9, 6, 4, 1), params, np.random.default_rng(0))


def test_conditional_sampler_k1_trivial(params):
    pat = conditional_lower_rows((4,), params, np.random.default_rng(0))
    assert pat.rows == ((4,),)


def test_conditional_sampler_frequencies_k2(census, params):
    lam = (2, 1)
    pats, _, _, weights = census(lam[::-1], params)
    probs = weights / weights.sum()
    n = 100_000
    # one uniform per draw: one call on n copies of the top row draws what n
    # one-draw calls at the same seed do
    mids = sample_lower_rows(np.array([lam] * n), params,
                             np.random.default_rng(123))[0]
    counts = {p_.rows[0]: 0 for p_ in pats}
    for mid in map(tuple, mids.tolist()):
        counts[mid] += 1
    for p_, prob in zip(pats, probs):
        sigma = math.sqrt(n * prob * (1 - prob))
        assert abs(counts[p_.rows[0]] - n * prob) < 3.5 * sigma


def test_conditional_interlacing_always(params):
    rng = np.random.default_rng(5)
    for _ in range(50):
        pat = conditional_lower_rows((7, 4, 2), params, rng=rng)
        assert pat.top == (2, 4, 7)  # validated on construction


def test_fast_k2_conditional_matches_generic(census, params):
    tops = np.array([[5, 2]] * 200_000)
    rng = np.random.default_rng(11)
    cs = sample_conditional_k2(tops, params, rng)
    assert cs.min() >= 2 and cs.max() <= 5
    weights = census((2, 5), params)[3]
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


def test_interlace_violations_flags_each_sample():
    # descending rows: equal neighbours are allowed; a non-strict upper row
    # and a lower entry outside [upper[i + 1], upper[i]] are each flagged
    upper = np.array([[5, 2], [5, 2], [4, 4], [5, 2], [5, 2]])
    lower = np.array([[5], [2], [4], [6], [1]])
    assert interlace_violations(lower, upper).tolist() == [
        False, False, True, True, True]
    tops = np.array([[6, 3, 1], [6, 3, 1]])
    middles = np.array([[3, 1], [4, 0]])
    assert interlace_violations(middles, tops).tolist() == [False, True]
