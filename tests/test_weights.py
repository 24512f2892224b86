import math
import random

import pytest

from sixvertexlab.checks import random_point
from sixvertexlab.core import q_pochhammer
from sixvertexlab.weights import (conjugation_factor, six_vertex_weights,
                                  vertex_weight_raw)


def delta_parameter(a1: float, a2: float, b1: float, b2: float,
                    c1: float, c2: float) -> float:
    """Anisotropy (a1 a2 + b1 b2 - c1 c2) / (2 sqrt(a1 a2 b1 b2)) of a six-vertex
    weight table; all six weights must be positive."""
    weights = (a1, a2, b1, b2, c1, c2)
    if any(w <= 0 for w in weights):
        raise ValueError(f"all six weights must be positive, got {weights}")
    return (a1 * a2 + b1 * b2 - c1 * c2) / (2.0 * math.sqrt(a1 * a2 * b1 * b2))


def test_delta_parameter_examples():
    assert delta_parameter(1, 1, 1, 1, 1, 1) == pytest.approx(0.5)
    # a1 a2 + b1 b2 = c1 c2 makes the numerator vanish
    assert delta_parameter(2, 1, 1, 2, 2, 2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        delta_parameter(1, 1, 0, 1, 1, 1)


def test_empty_vertex_weight_is_one(params):
    for conj in (False, True):
        assert vertex_weight_raw(0, 0, 0, 0, params.q, params.s, 2.0,
                                 conj) == 1.0


def test_turn_weight_matches_table(params):
    q, s, u = params.q, params.s, 2.0
    for g in range(5):
        got = vertex_weight_raw(g, 1, g + 1, 0, q, s, u, False)
        assert got == pytest.approx((1 - q ** (g + 1)) / (1 - s * u), rel=1e-14)


def test_nonconserving_vertex_is_zero(params):
    q, s = params.q, params.s
    assert vertex_weight_raw(2, 1, 0, 1, q, s, 2.0, False) == 0.0
    assert vertex_weight_raw(1, 1, 1, 0, q, s, 2.0, False) == 0.0


def test_blocked_branches_vanish_exactly(params):
    # splitting off a doubly occupied column (plain) and merging onto an
    # occupied column (conjugated) must give identically zero at s = q^{-1/2}
    q, s = params.q, params.s
    assert vertex_weight_raw(2, 0, 1, 1, q, s, 2.0, False) == 0.0
    assert vertex_weight_raw(1, 1, 2, 0, q, s, 0.25, True) == 0.0
    # but one level up both are allowed
    assert vertex_weight_raw(3, 0, 2, 1, q, s, 2.0, False) != 0.0
    assert vertex_weight_raw(2, 1, 3, 0, q, s, 2.0, False) != 0.0


def test_occupancy_cap(params):
    with pytest.raises(ValueError):
        vertex_weight_raw(70, 0, 70, 0, params.q, params.s, 2.0, False)


def test_conjugation_ratio_between_tables():
    # w^c (q;q)_{i2} (s^2;q)_{i1} = w (q;q)_{i1} (s^2;q)_{i2}, cross-multiplied
    # so the zero factors of (s^2; q)_n at s^2 q = 1 stay harmless
    rng = random.Random(5)
    for _ in range(20):
        p = random_point(rng)
        q, s, u = p.q, p.s, p.u
        s2 = 1 / p.q
        for g in range(9):
            for (i1, j1, i2, j2) in [(g, 0, g, 0), (g, 1, g, 1),
                                     (g, 1, g + 1, 0), (g + 1, 0, g, 1)]:
                plain = vertex_weight_raw(i1, j1, i2, j2, q, s, u, False)
                conj = vertex_weight_raw(i1, j1, i2, j2, q, s, u, True)
                lhs = conj * q_pochhammer(q, q, i2) * q_pochhammer(s2, q, i1)
                rhs = plain * q_pochhammer(q, q, i1) * q_pochhammer(s2, q, i2)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_six_vertex_weights_examples(params, six_vertex_types):
    ws = six_vertex_weights(params)
    assert ws[0] == 1.0
    assert all(x > 0 for x in ws)
    # componentwise absolute values of the signed table at g = 0 / 1
    signed = [vertex_weight_raw(*t, params.q, params.s, params.u, False)
              for t in six_vertex_types]
    for got, signed_val in zip(ws, signed):
        assert abs(signed_val) == pytest.approx(got, rel=1e-13)


def test_six_vertex_ferroelectric_grid():
    rng = random.Random(17)
    for _ in range(20):
        p = random_point(rng)
        assert delta_parameter(*six_vertex_weights(p)) > 1.0


def test_conjugation_factor_examples(params):
    assert conjugation_factor((), params) == 1.0
    block = (1 - 1 / params.q) / (1 - params.q)
    assert conjugation_factor((5, 3, 1), params) == pytest.approx(block ** 3)
    assert conjugation_factor((4,), params) == pytest.approx(block)
    # repeated values hit the (s^2; q)_2 zero
    assert conjugation_factor((3, 3, 0), params) == 0.0
    with pytest.raises(ValueError):
        conjugation_factor((2, -1), params)
