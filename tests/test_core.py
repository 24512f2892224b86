import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sixvertexlab.checks import random_point
from sixvertexlab.core import (ModelParams, Signature, multiplicities,
                               pair_admissible, q_pochhammer, strict_atoms)


def test_q_pochhammer_examples():
    assert q_pochhammer(0.7, 0.3, 0) == 1
    assert q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375, abs=0)
    assert q_pochhammer(1.0, 0.37, 3) == 0.0


def test_q_pochhammer_recurrence():
    rng = random.Random(7)
    for _ in range(50):
        a, q = rng.uniform(-2, 2), rng.uniform(-0.9, 0.9)
        n = rng.randrange(0, 21)
        lhs = q_pochhammer(a, q, n + 1)
        rhs = q_pochhammer(a, q, n) * (1 - a * q ** n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_q_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        q_pochhammer(0.5, 0.5, -1)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((1, 2))
    with pytest.raises(ValueError):
        Signature((2.7, 1.2))  # refused, not truncated to (2, 1)
    assert Signature((2.0, 1)).parts == (2, 1)


def test_signature_multiplicity_examples():
    assert multiplicities((5, 4, 2)) == {5: 1, 4: 1, 2: 1}
    assert multiplicities((3, 3, 0)) == {3: 2, 0: 1}
    assert multiplicities(()) == {}


def test_strict_atoms_colex_order():
    # increasing tuples in lexicographic order are the colex order of their
    # reversals
    for k in (1, 2, 3, 4):
        for lo in (0, 1, 3):
            for hi in range(lo - 1, lo + 9):
                got = strict_atoms(k, lo, hi)
                want = [c[::-1] for c in combinations(range(lo, hi + 1), k)]
                assert got.dtype == np.intp and got.shape == (len(want), k)
                assert got.tolist() == [list(c) for c in want], (k, lo, hi)
    with pytest.raises(ValueError):
        strict_atoms(0, 0, 3)


def test_strict_atoms_allocates_only_the_result():
    tracemalloc.start()
    try:
        atoms = strict_atoms(3, 1, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * atoms.nbytes, (peak, atoms.nbytes)


def test_model_params_chain():
    p = ModelParams(q=0.5, u=2.0, v=0.25)
    assert p.s == pytest.approx(2 ** 0.5)
    assert p.u * p.v < 1 and p.u > p.s > 1
    for bad in [dict(q=1.5, u=2, v=0.25), dict(q=0.5, u=1.2, v=0.25),
                dict(q=0.5, u=2.0, v=0.6), dict(q=0.5, u=2.0, v=-0.1)]:
        with pytest.raises(ValueError):
            ModelParams(**bad)


def test_model_params_accepted_chain_property():
    rng = random.Random(3)
    for _ in range(100):
        p = random_point(rng)
        assert p.u * p.v < 1.0
        assert p.u > p.q ** -0.5
        assert pair_admissible(p.u, p.v, p.s)
