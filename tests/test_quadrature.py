import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest

from sixvertexlab.asymptotics import exponent_rows, log_ratio_s, log_ratio_v
from sixvertexlab.core import ModelParams
from sixvertexlab import quadrature
from sixvertexlab.quadrature import (FACTOR_TOL, SKETCH_MARGIN, SKETCH_WIDTH,
                                     QuadratureError, WindowCore, adaptive,
                                     composite_nodes, conjugate_pairs,
                                     cross_kernel, kernel_factor,
                                     tensor_integral, window_integral)


def test_adaptive_failure_carries_diagnostics():
    calls = []

    def evaluate(n):
        calls.append(n)
        return float(n)  # changes by n/2 at every doubling: never converges

    n0, max_nodes = 8, 256
    with pytest.raises(QuadratureError) as exc:
        adaptive(evaluate, n0, max_nodes, 1e-10)
    assert len(calls) == math.log2(max_nodes / n0) + 1
    assert calls == [8, 16, 32, 64, 128, 256]
    assert exc.value.diagnostics == {"nodes": 256, "last_change": 128.0,
                                     "tol": 1e-10}


def test_adaptive_returns_at_the_first_doubling_meeting_the_rule():
    def run(atol):
        calls = []

        def evaluate(n):
            calls.append(n)
            return np.array([1.0, 2.0]) + 1.0 / n

        return adaptive(evaluate, 4, 1 << 10, 1e-2, atol=atol), calls

    # the change at n is 1/n against tol * max|value| = 1e-2 (2 + 1/n):
    # 1/32 fails the relative rule, 1/64 meets it
    value, calls = run(0.0)
    assert calls == [4, 8, 16, 32, 64]
    np.testing.assert_array_equal(value, np.array([1.0, 2.0]) + 1.0 / 64)
    # an absolute floor of 0.05 is met one doubling earlier (1/32 < 0.05)
    value, calls = run(0.05)
    assert calls == [4, 8, 16, 32]
    np.testing.assert_array_equal(value, np.array([1.0, 2.0]) + 1.0 / 32)


def _brute_force(cols, z, q):
    """The k-fold node sum by einsum over every node tuple."""
    kern = (z[:, None] - z[None, :]) / (z[:, None] - q * z[None, :])
    if len(cols) == 1:
        return np.einsum("ia->i", cols[0])
    if len(cols) == 2:
        return np.einsum("ab,ia,jb->ij", kern, *cols)
    return np.einsum("ab,ac,bc,ia,jb,kc->ijk", kern, kern, kern, *cols)


def _families(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_tensor_integral_matches_brute_force():
    q = 0.5
    z, _ = composite_nodes(2.0, 10, 20)
    assert len(z) == 25
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        rows = _families(rng, (k, len(z)))
        ref = _brute_force(list(rows[:, None]), z, q).item()
        got = tensor_integral(rows, z, q)
        assert type(got) is complex
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_tensor_integral_k2_streams_the_full_kernel_bits():
    # the k = 2 integral pushes row 0 through the kernel KERNEL_COLUMNS
    # columns at a time and keeps the bits of the full-kernel product, on
    # circle nodes (100 is no multiple of the block) and composite nodes;
    # one BLAS thread, since a threaded gemv splits the full product's
    # columns at N / 2 and moves its bits
    code = """
        import json
        import numpy as np
        from sixvertexlab.quadrature import (circle_nodes, composite_nodes,
                                             cross_kernel, tensor_integral)
        rng, same = np.random.default_rng(13), []
        for z, wts in [circle_nodes(1.3, n) for n in (64, 100, 1024)] + [
                composite_nodes(2.0, 100, 129)]:
            for _ in range(4):
                rows = (rng.normal(size=(2, len(z)))
                        + 1j * rng.normal(size=(2, len(z)))) * wts
                want = (rows[:1] @ cross_kernel(z, 0.5) @ rows[1:].T).item()
                same.append([len(z), tensor_integral(rows, z, 0.5) == want])
        print(json.dumps(same))
    """
    src = str(pathlib.Path(quadrature.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, check=True)
    same = json.loads(proc.stdout.strip().splitlines()[-1])
    sizes = [n for n, _ in same]
    assert sizes == [n for n in (64, 100, 1024, 162) for _ in range(4)]
    assert all(ok for _, ok in same)


def _mirrored(rows, n):
    """rows made conjugate-symmetric on the pairs of composite_nodes(., ., n):
    conjugates of the upper-half columns on their partners, and real parts
    on the self-conjugate nodes, as exponent rows are."""
    upper, lower, fixed = conjugate_pairs(n)
    rows = rows.copy()
    rows[:, lower] = rows[:, upper].conj()
    rows[:, fixed] = rows[:, fixed].real
    return rows


def _core_entries(rows, done, kern, factor, pairs, size=0.0):
    """The k = 3 strict entries of the WindowCore over rows, from done."""
    return WindowCore(rows, size, kern, factor, pairs).entries(done, len(rows))


def test_window_integral_packed_strict_entries():
    # one exponent window of W members: the strict entries i1 > ... > ik in
    # lexicographic order; at k = 3 through the truncated and the exact
    # kernel factor; a later start done gives the tail of the whole
    # window's output
    q, W, n = 0.5, 7, 20
    z, _ = composite_nodes(2.0, 10, n)
    rows = _mirrored(_families(np.random.default_rng(5), (W, len(z))), n)
    kern = cross_kernel(z, q)
    pairs = conjugate_pairs(n)
    assert len(pairs[2]) == 1     # the arc's 5 nodes have a middle one
    factors = (kernel_factor(kern), (kern, np.eye(len(z))))
    for k in (1, 2, 3):
        ref = _brute_force([rows] * k, z, q).real
        entries = sorted(c[::-1] for c in combinations(range(W), k))
        want = np.array([ref[e] for e in entries])
        runs = ([lambda done: window_integral(rows, k, done, kern)] if k < 3
                else [lambda done, f=f: _core_entries(rows, done, kern, f,
                                                      pairs)
                      for f in factors])
        for run in runs:
            got = run(0)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(ref))
            for done in (1, 3, W - 1):
                tail = run(done)
                assert len(tail) == sum(e[0] >= done for e in entries)
                err = np.max(np.abs(tail - got[len(got) - len(tail):]))
                assert err <= 1e-13 * np.max(np.abs(ref))


def test_window_integral_k3_refuses_rows_off_the_pairs():
    # the half-node sum holds only for conjugate-symmetric rows: random rows
    # are refused, as is a mirrored window with one entry moved by 1e-9
    q, W, n = 0.5, 7, 20
    z, _ = composite_nodes(2.0, 10, n)
    rows = _families(np.random.default_rng(5), (W, len(z)))
    kern = cross_kernel(z, q)
    factor, pairs = kernel_factor(kern), conjugate_pairs(n)
    with pytest.raises(ValueError, match="not conjugate on the pairs"):
        WindowCore(rows, 0.0, kern, factor, pairs)
    bent = _mirrored(rows, n)
    bent[3, pairs[1][0]] += 1e-9 * np.max(np.abs(bent))
    with pytest.raises(ValueError, match="not conjugate on the pairs"):
        WindowCore(bent, 0.0, kern, factor, pairs)
    assert len(window_integral(bent, 2, 0, kern)) == 21
    # exponent rows are conjugate on the pairs only to about
    # eps |l L_s + M L_v| max|rows|, 1.2e-12 at M = 2,000, past the bound
    # for size 0; the bound grows with the exponent's size, and a 1e-9
    # bend is still refused
    params, n = ModelParams(0.5, 2.0, 0.25), 2064
    for M, lo, hi in [(1000, 44, 670), (2000, 272, 1156)]:
        z, wts = composite_nodes(params.u, M, n)
        rows = exponent_rows(z, wts, [lo, (lo + hi) // 2, hi - 2, hi - 1, hi],
                             M, params)
        size = np.max(hi * np.abs(log_ratio_s(z, params))
                      + M * np.abs(log_ratio_v(z, params)))
        kern = cross_kernel(z, params.q)
        factor, pairs = kernel_factor(kern), conjugate_pairs(n)
        out = _core_entries(rows, 0, kern, factor, pairs, size)
        assert out.shape == (10,) and np.all(np.isfinite(out))
        if M == 2000:
            with pytest.raises(ValueError, match="not conjugate"):
                WindowCore(rows, 0.0, kern, factor, pairs)
        rows[3, pairs[1][0]] += 1e-9 * np.max(np.abs(rows))
        with pytest.raises(ValueError, match="not conjugate on the pairs"):
            WindowCore(rows, size, kern, factor, pairs)


def test_window_core_refuses_an_uncertified_factor(monkeypatch):
    # a skeleton cut at 1e-3 of the largest row norm leaves the exponent
    # rows far past FACTOR_TOL max|R|: the constructor raises, so no
    # entries come out of a truncated factor
    params, M, n = ModelParams(0.5, 2.0, 0.25), 10, 129
    z, wts = composite_nodes(params.u, M, n)
    rows = exponent_rows(z, wts, np.arange(1, 41), M, params)
    kern = cross_kernel(z, params.q)
    factor, pairs = kernel_factor(kern), conjugate_pairs(n)
    assert _core_entries(rows, 0, kern, factor, pairs).shape == (9880,)
    monkeypatch.setattr(quadrature, "EXPONENT_RTOL", 1e-3)
    with pytest.raises(QuadratureError, match="not certified") as exc:
        WindowCore(rows, 0.0, kern, factor, pairs)
    assert exc.value.diagnostics["error"] > exc.value.diagnostics["bound"]


def test_window_integral_k3_allocates_no_dense_box():
    # W = 60 members on 25 nodes: the packed window peaks far below one
    # dense W^3 box of reals
    q, W, n = 0.5, 60, 20
    z, _ = composite_nodes(2.0, 10, n)
    rows = _mirrored(_families(np.random.default_rng(7), (W, len(z))), n)
    kern = cross_kernel(z, q)
    factor, pairs = kernel_factor(kern), conjugate_pairs(n)
    tracemalloc.start()
    try:
        out = _core_entries(rows, 0, kern, factor, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (math.comb(W, 3),)
    assert peak < W ** 3 * 8


def test_window_integral_k2_holds_no_square_product():
    # W = 1,000 rows on 162 nodes: filled WINDOW_ROWS new rows at a time,
    # the window peaks below the bytes of its W x W complex product, and
    # equals the whole product's strict entries, also from a start done
    # inside a block
    q, W = 0.5, 1000
    z, wts = composite_nodes(2.0, 10, 129)
    rows = _families(np.random.default_rng(17), (W, len(z))) * wts
    kern = cross_kernel(z, q)
    full = (rows @ kern @ rows.T).real
    tracemalloc.start()
    try:
        out = window_integral(rows, 2, 0, kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < W * W * 16
    scale = np.max(np.abs(full))
    for done in (0, 300):
        want = full[done:][np.tri(W - done, W, done - 1, dtype=bool)]
        got = out if done == 0 else window_integral(rows, 2, done, kern)
        assert got.shape == want.shape == (math.comb(W, 2)
                                           - math.comb(done, 2),)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_cross_kernel_holds_no_second_square_array():
    # divided block by block, the kernel has the one-shot formula's bits and
    # peaks near its own bytes, not two N x N arrays (N = 1,296 nodes)
    q = 0.5
    z, _ = composite_nodes(2.0, 100, 1032)
    tracemalloc.start()
    try:
        kern = cross_kernel(z, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kern.shape == (1296, 1296)
    assert np.array_equal(kern, (z[:, None] - z[None, :])
                          / (z[:, None] - q * z[None, :]))
    assert peak <= 1.25 * kern.nbytes


def test_conjugate_pairs_follow_the_node_layout():
    # at the display point each pair is a conjugate node pair with conjugate
    # weights, every node is listed once, and only the 129-node set has
    # self-conjugate nodes: u on the segment and -u on the arc
    u = 2.0
    for n in (129, 258, 516, 1032):
        z, wts = composite_nodes(u, 10, n)
        upper, lower, fixed = conjugate_pairs(n)
        assert sorted(np.concatenate([upper, lower, fixed])) == list(
            range(len(z)))
        assert np.all(z[upper].imag > 0)
        assert np.all(np.abs(z[lower] - z[upper].conj())
                      <= 1e-14 * np.abs(z[upper]))
        assert np.all(np.abs(wts[lower] - wts[upper].conj())
                      <= 1e-14 * np.abs(wts[upper]))
        if n == 129:
            assert len(fixed) == 2
            assert np.allclose(z[fixed], [u, -u], rtol=0, atol=1e-14 * u)
        else:
            assert len(fixed) == 0


def _certified(kern, U, V):
    return np.max(np.abs(kern - U @ V)) <= FACTOR_TOL * np.max(np.abs(kern))


def test_kernel_factor_is_low_rank_at_the_display_point(monkeypatch):
    # certified and reproducible at every node count; low rank across the
    # q band, with SKETCH_MARGIN spare columns in the sketch it decomposes;
    # q = 0.9 widens the sketch, and at 162 nodes, where the sketch would
    # take every column, the factor is the exact (K, I)
    widths, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        widths.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    ranks, sketched = {}, {}
    for q in (0.4, 0.5, 0.6, 0.9):
        for n in (129, 258, 516, 1032):
            z, _ = composite_nodes(2.0, 10, n)
            kern = cross_kernel(z, q)
            widths.clear()
            U, V = kernel_factor(kern)
            again = kernel_factor(kern)
            assert len(z) == 162 * n // 129
            assert U.shape[1] == V.shape[0]
            assert _certified(kern, U, V)
            assert np.array_equal(U, again[0]) and np.array_equal(V, again[1])
            ranks[q, len(z)] = U.shape[1]
            if U.shape[1] < len(z):
                last = widths[len(widths) // 2 - 1]
                assert last % SKETCH_WIDTH == 0 and last < len(z)
                assert last - U.shape[1] >= SKETCH_MARGIN
                sketched[q, len(z)] = last
            else:
                assert np.array_equal(U, kern)
                assert np.array_equal(V, np.eye(len(z)))
    assert all(r < 100 for (q, _), r in ranks.items() if q <= 0.6)
    assert sketched[0.5, 1296] == SKETCH_WIDTH
    assert sketched[0.9, 1296] > 2 * SKETCH_WIDTH
    assert ranks[0.9, 162] == 162


def test_kernel_factor_of_a_full_rank_matrix():
    # a random matrix has no numerical null space: the sketch would take
    # all N columns, so the factor is the exact (K, I) of rank N
    rng = np.random.default_rng(11)
    kern = _families(rng, (150, 150))
    U, V = kernel_factor(kern)
    assert U.shape == V.shape == (150, 150)
    assert _certified(kern, U, V)
    assert np.array_equal(U, kern) and np.array_equal(V, np.eye(150))


def test_kernel_factor_falls_back_to_the_exact_factor():
    # ones + 1.5e-13 I: the 1.5e-13 singular values fall below
    # RANK_RTOL sigma_0 = 2e-13, so truncation leaves 1.5e-13 of max|K| at
    # every sketch width, past FACTOR_TOL; the factor is the exact (K, I)
    kern = np.ones((200, 200), dtype=complex) + 1.5e-13 * np.eye(200)
    U, V = kernel_factor(kern)
    assert np.array_equal(U, kern) and np.array_equal(V, np.eye(200))


def test_kernel_factor_decomposes_no_square_kernel(monkeypatch):
    # at 1,296 nodes every SVD is of a sketch-sized block, never N x N,
    # also where q = 0.9 widens the sketch
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    z, _ = composite_nodes(2.0, 10, 1032)
    for q in (0.5, 0.9):
        kern = cross_kernel(z, q)
        shapes.clear()
        U, V = kernel_factor(kern)
        assert len(z) == 1296 and shapes
        assert all(min(shape) < len(z) for shape in shapes)
        assert _certified(kern, U, V)


def test_kernel_factor_stops_near_q_one(monkeypatch):
    # at q = 0.99 the sketch's residuals decay too slowly for any width
    # short of 2N/3: one block (one QR call) shows it, and the factor is the
    # exact (K, I); at q = 0.9 the same node sets keep a sketched factor
    calls, qr = [], np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    for n in (516, 1032):
        z, _ = composite_nodes(2.0, 100, n)
        kern = cross_kernel(z, 0.99)
        calls.clear()
        U, V = kernel_factor(kern)
        assert len(calls) <= 3
        assert np.array_equal(U, kern) and np.array_equal(V, np.eye(len(z)))
        kern = cross_kernel(z, 0.9)
        U, V = kernel_factor(kern)
        assert U.shape[1] < len(z) / 2 and _certified(kern, U, V)


def test_gauss_legendre_rules_computed_once_under_threads(monkeypatch):
    # a library caller's two threads miss the same rules at once; the one
    # that comes second waits for the first's rule rather than computing its
    # own (the slow rule makes both miss before either rule is in)
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def slow(n):
        calls.append(n)
        time.sleep(0.05)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", slow)
    monkeypatch.setattr(quadrature, "_RULES", {})
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda M: composite_nodes(2.0, M, 258),
                            [100, 400]))
    assert sorted(calls) == [66, 258]
    for M, (z, w) in zip([100, 400], got):
        z_ref, w_ref = composite_nodes(2.0, M, 258)
        assert np.array_equal(z, z_ref) and np.array_equal(w, w_ref)
    assert sorted(calls) == [66, 258]   # the serial calls hit the rules too
