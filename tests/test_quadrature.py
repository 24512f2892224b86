import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sixvertexlab.quadrature import (QuadratureError, adaptive,
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


def _mirrored(rows, n):
    """rows made conjugate-symmetric on the pairs of composite_nodes(., ., n):
    conjugates of the upper-half columns on their partners, and real parts
    on the self-conjugate nodes, as exponent rows are."""
    upper, lower, fixed = conjugate_pairs(n)
    rows = rows.copy()
    rows[:, lower] = rows[:, upper].conj()
    rows[:, fixed] = rows[:, fixed].real
    return rows


def test_window_integral_packed_strict_entries():
    # one exponent window of W members: the strict entries i1 > ... > ik in
    # lexicographic order, through the truncated and the exact factor; a
    # later start done gives the tail of the whole window's output
    q, W, n = 0.5, 7, 20
    z, _ = composite_nodes(2.0, 10, n)
    rows = _mirrored(_families(np.random.default_rng(5), (W, len(z))), n)
    kern = cross_kernel(z, q)
    pairs = conjugate_pairs(n)
    assert len(pairs[2]) == 1     # the arc's 5 nodes have a middle one
    for k in (1, 2, 3):
        ref = _brute_force([rows] * k, z, q).real
        entries = sorted(c[::-1] for c in combinations(range(W), k))
        want = np.array([ref[e] for e in entries])
        for factor in (kernel_factor(kern), (kern, np.eye(len(z)))):
            got = window_integral(rows, k, 0, kern, factor, pairs)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(ref))
            for done in (1, 3, W - 1):
                tail = window_integral(rows, k, done, kern, factor, pairs)
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
        window_integral(rows, 3, 0, kern, factor, pairs)
    bent = _mirrored(rows, n)
    bent[3, pairs[1][0]] += 1e-9 * np.max(np.abs(bent))
    with pytest.raises(ValueError, match="not conjugate on the pairs"):
        window_integral(bent, 3, 0, kern, factor, pairs)
    assert len(window_integral(bent, 2, 0, kern, None, None)) == 21


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
        out = window_integral(rows, 3, 0, kern, factor, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (math.comb(W, 3),)
    assert peak < W ** 3 * 8


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


def test_kernel_factor_is_low_rank_at_the_display_point():
    q = 0.5
    for n in (129, 258):
        z, _ = composite_nodes(2.0, 10, n)
        kern = cross_kernel(z, q)
        U, V = kernel_factor(kern)
        assert len(z) == 162 * n // 129
        assert U.shape[1] == V.shape[0] < len(z)
        assert np.max(np.abs(kern - U @ V)) <= 1e-13 * np.max(np.abs(kern))
