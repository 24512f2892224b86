import random
from fractions import Fraction
from itertools import product

import pytest

from sixvertexlab import checks, paths
from sixvertexlab.checks import random_point
from sixvertexlab.core import multiplicities, strict_atoms
from sixvertexlab.paths import (PathCollection, collection_weight,
                                count_collections_formula,
                                enumerate_F_collections,
                                enumerate_Gc_collections, is_typical,
                                typical_count_lower_bound)


def test_single_path_collection():
    cols = enumerate_F_collections((), (4,), 1)
    assert len(cols) == 1
    cols[0].validate()
    assert cols[0].sections[0] == (4,)


def test_two_path_example():
    assert len(enumerate_F_collections((), (2, 1), 2)) == 2


def test_figure_example_count():
    cols = enumerate_F_collections((), (6, 3, 1), 3)
    assert len(cols) == 42 == count_collections_formula((6, 3, 1))


def interlacing_chains(mu, lam, n):
    """Chains mu = x_0, ..., x_n = lam whose steps interlace, x_i[j] <=
    x_{i+1}[j] <= x_i[j - 1]: the G^c collections, counted without paths."""
    sigs = list(product(range(lam[0] + 1), repeat=len(mu)))
    count = 0
    for mids in product(sigs, repeat=n - 1):
        chain = [mu, *mids, lam]
        count += all(b[0] >= a[0] and all(a[i] <= b[i] <= a[i - 1]
                                          for i in range(1, len(a)))
                     for a, b in zip(chain, chain[1:]))
    return count


def test_row_configurations_built_once_per_cross_section(monkeypatch):
    # F (6, 3, 1) reaches each cross-section along many branches, and the
    # G^c case reaches (3, 1), (4, 1), ... again in later rows
    seen = []
    build = paths._row_configurations

    def counted(bottom, *args):
        seen.append(tuple(sorted((x for x, m in bottom.items()
                                  for _ in range(m)), reverse=True)))
        return build(bottom, *args)

    monkeypatch.setattr(paths, "_row_configurations", counted)
    for enumerate_, mu, lam, n, count in [
            (enumerate_F_collections, (), (6, 3, 1), 3,
             count_collections_formula((6, 3, 1))),
            (enumerate_Gc_collections, (3, 1), (5, 4), 3,
             interlacing_chains((3, 1), (5, 4), 3))]:
        seen.clear()
        cols = enumerate_(mu, lam, n)
        assert len(cols) == count > 1
        assert len({c.rows for c in cols}) == len(cols)
        for c in cols:
            c.validate()
        reached = {mu} | {c.sections[r - 1] for c in cols for r in range(1, n)}
        assert len(seen) == len(set(seen)) and reached <= set(seen), lam


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_F_collections((), (2, 1), -1)
    with pytest.raises(ValueError):
        enumerate_F_collections((1,), (2, 1), 2)  # length mismatch
    with pytest.raises(ValueError):
        enumerate_Gc_collections((1, 0), (2,), 1)  # length mismatch


def test_incompatible_boundaries_give_no_collections():
    # paths only move right, so some mu_i > lam_i leaves nothing to route
    assert enumerate_Gc_collections((4,), (1,), 1) == []
    assert enumerate_F_collections((5,), (2, 1), 1) == []
    assert enumerate_Gc_collections((3, 1), (0, 0), 2) == []


def test_gc_straight_up():
    cols = enumerate_Gc_collections((3, 1), (3, 1), 1)
    assert any(all(v[3] == 0 for v in c.vertex_types()) for c in cols)
    assert len(enumerate_Gc_collections((0,), (5,), 1)) == 1
    # up-right paths cannot move left
    assert enumerate_Gc_collections((4, 2), (3, 1), 2) == []


def test_edge_consistency_everywhere():
    for c in enumerate_F_collections((), (3, 1), 2):
        c.validate()
    for c in enumerate_Gc_collections((2, 0), (4, 1), 2):
        c.validate()


def test_validate_rejects_chains_that_do_not_interlace():
    # a G^c step from (3,) to (2,) moves the path left: the derived
    # horizontal edge at x = 2 is -1
    pc = PathCollection(family="Gc", mu=(3,), lam=(2,), n_rows=1, n_cols=5,
                        sections=((2,),))
    assert pc.rows[0][2] == (0, 0, 1, -1)
    with pytest.raises(AssertionError, match="do not interlace"):
        pc.validate()
    # an F row whose entering path never turns up leaves the window
    with pytest.raises(AssertionError, match="leaves window"):
        PathCollection(family="F", mu=(), lam=(), n_rows=1, n_cols=3,
                       sections=((),)).validate()
    # a chain whose top is not lam
    with pytest.raises(AssertionError, match="top boundary"):
        PathCollection(family="Gc", mu=(1,), lam=(2,), n_rows=1, n_cols=4,
                       sections=((1,),)).validate()
    PathCollection(family="Gc", mu=(1,), lam=(2,), n_rows=1, n_cols=4,
                   sections=((2,),)).validate()


def test_counting_formula_examples():
    assert count_collections_formula((7,)) == 1
    assert count_collections_formula((2, 1)) == 2
    assert count_collections_formula((6, 3, 1)) == 42
    with pytest.raises(ValueError):
        count_collections_formula((3, 3))


def test_counting_formula_matches_enumeration():
    bad, _, _, census = checks.counting((1, 2, 3), 6)
    assert bad == 0, census


def test_typical_classification():
    cols = enumerate_F_collections((), (6, 3, 1), 3)
    typ = [c for c in cols if is_typical(c)]
    assert len(typ) >= typical_count_lower_bound((6, 3, 1)) == Fraction(3)
    # every typical collection has the exact type census
    k, size = 3, 10
    for c in typ:
        counts = multiplicities(c.vertex_types())
        assert counts.get((0, 1, 0, 1), 0) == size - k * (k - 1) // 2
        assert counts.get((0, 1, 1, 0), 0) == k * (k + 1) // 2
        assert counts.get((1, 0, 0, 1), 0) == k * (k - 1) // 2


def test_single_path_is_typical():
    c, = enumerate_F_collections((), (5,), 1)
    assert is_typical(c)


def test_pass_through_vertex_is_not_typical():
    # collections where a path runs straight up while another passes carry
    # a (1,0;1,0) or (1,1;1,1) vertex and are excluded
    cols = enumerate_F_collections((), (3, 1), 2)
    flagged = [c for c in cols if any(v == (1, 0, 1, 0) for v in c.vertex_types())]
    assert all(not is_typical(c) for c in flagged)


def test_single_path_weight(params):
    m = 5
    c, = enumerate_F_collections((), (m,), 1)
    u, s, q = params.u, params.s, params.q
    expect = (1 - q) / (1 - s * u) * ((u - s) / (1 - s * u)) ** m
    assert collection_weight(c, (u,), params) == pytest.approx(expect, rel=1e-13)


def test_empty_collection_weight(params):
    c, = enumerate_F_collections((), (), 0)
    assert collection_weight(c, (), params) == 1.0


def test_typical_weight_closed_form():
    worst = checks.typical_weight(checks.random_points(23, 5),
                                  [(3, 1), (4, 2, 0), (5, 3, 1)])[2]
    assert worst < 1e-12


def test_weight_bound_constant():
    # |W(pi)| <= C ((u-s)/(su-1))^{|lam|} with one fitted C per parameter point
    rng = random.Random(29)
    p = random_point(rng)
    u, s = p.u, p.s
    x = (u - s) / (s * u - 1)
    ratios = []
    for k in (1, 2, 3):
        for lam in strict_atoms(k, 0, 8).tolist():
            for c in enumerate_F_collections((), lam, k):
                wgt = abs(collection_weight(c, (u,) * k, p))
                ratios.append(wgt / x ** sum(lam))
    assert max(ratios) < 1e6  # finite fitted constant exists


def test_json_grid_roundtrip():
    c, = enumerate_F_collections((), (3,), 1)
    grid = c.to_json_grid()
    assert grid["vertices"][0][3] == [0, 1, 1, 0]
    assert grid["lam"] == [3]
