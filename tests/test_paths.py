import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product

import pytest

from sixvertexlab import checks, paths, symfunc
from sixvertexlab.checks import random_point
from sixvertexlab.core import ModelParams, multiplicities, strict_atoms
from sixvertexlab.paths import (PathCollection, collection_weight,
                                count_collections_formula,
                                enumerate_F_collections,
                                enumerate_Gc_collections, is_typical,
                                typical_count_lower_bound)
from sixvertexlab.weights import vertex_weight_raw


def validate(pc: PathCollection) -> None:
    """Every derived horizontal edge of pc in {0, 1}, every row ending empty
    and the top cross-section equal to lam."""
    for y, row in enumerate(pc.rows, start=1):
        for x, (_i1, _j1, _i2, j2) in enumerate(row):
            if j2 not in (0, 1):
                raise AssertionError(f"horizontal edge {j2} at x={x}, y={y}: "
                                     "cross-sections do not interlace")
        if row[-1][3] != 0:
            raise AssertionError(f"path leaves window in row {y}")
    if (pc.sections[-1] if pc.sections else pc.mu) != pc.lam:
        raise AssertionError("top boundary does not match lam")


def vertex_types(pc: PathCollection) -> list:
    """The dense vertex grid of pc, row by row."""
    return [v for row in pc.rows for v in row]


def reference_row(bottom, top, n_cols, left_entry):
    """The vertex row by one look-up per column, x = 0..n_cols-1."""
    h, row = int(left_entry), []
    for x in range(n_cols):
        i1, i2 = bottom.count(x), top.count(x)
        row.append((i1, h, i2, i1 + h - i2))
        h = i1 + h - i2
    return row


def test_row_rule_yields_the_non_empty_vertices_of_the_column_loop():
    # every pair of sections with at most 3 parts <= 3, in any order, most of
    # which do not interlace, under a window that holds every part and one
    # that cuts parts off: the rule yields just the non-empty vertices of
    # the per-column loop with their columns, left to right, and rows fills
    # the empty ones back in
    sections = [sec for n in range(4) for sec in product(range(4), repeat=n)]
    edges = set()
    for family, left_entry in (("F", True), ("Gc", False)):
        for bottom, top in product(sections, repeat=2):
            for n_cols in (2, 6):
                row = reference_row(bottom, top, n_cols, left_entry)
                assert list(paths.row_vertices(bottom, top, n_cols,
                                               left_entry)) == [
                    (x, v) for x, v in enumerate(row) if v != (0, 0, 0, 0)]
                assert PathCollection(family, bottom, top, 1, n_cols,
                                      (top,)).rows == (tuple(row),)
                edges.update(v[3] for v in row)
    assert edges >= {-3, -2, -1, 0, 1, 2, 3}


def test_path_collection_is_an_immutable_record():
    fields = dict(family="Gc", mu=(3, 1), lam=(5, 4), n_rows=2, n_cols=7,
                  sections=((4, 2), (5, 4)))
    pc = PathCollection(**fields)
    with pytest.raises(AttributeError):
        pc.sections = ((5, 4), (5, 4))
    twin = PathCollection(**fields)
    assert pc == twin and hash(pc) == hash(twin) and len({pc, twin}) == 1
    others = dict(family="F", mu=(3, 0), lam=(5, 3), n_rows=3, n_cols=8,
                  sections=((3, 2), (5, 4)))
    for name, value in others.items():
        assert pc != PathCollection(**{**fields, name: value}), name
    assert repr(pc) == ("PathCollection(family='Gc', mu=(3, 1), lam=(5, 4), "
                        "n_rows=2, n_cols=7, sections=((4, 2), (5, 4)))")
    cols = enumerate_Gc_collections((3, 1), (5, 4), 3)
    assert len(set(cols)) == len(cols) > 1


def test_single_path_collection():
    cols = enumerate_F_collections((), (4,), 1)
    assert len(cols) == 1
    validate(cols[0])
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
            validate(c)
        reached = {mu} | {c.sections[r - 1] for c in cols for r in range(1, n)}
        assert len(seen) == len(set(seen)) and reached <= set(seen), lam


@pytest.mark.parametrize("conjugated", [False, True], ids=["F", "Gc"])
@pytest.mark.parametrize("p", [ModelParams(q=0.5, u=2.0, v=0.25),
                               ModelParams(q=0.7, u=2.0, v=0.25)],
                         ids=["display", "q0.7"])
def test_row_walkers_agree_row_by_row(p, conjugated):
    # the transfer's one-row walk and the enumeration's, from every bottom
    # with at most 3 parts <= 5 under a wide and a tight envelope: the same
    # nonzero-weight tops in the same order, each weighed bit for bit as its
    # one-row collection
    family, spectral = ("Gc", p.v) if conjugated else ("F", p.u)
    weight = cache(lambda i1, h, j2: vertex_weight_raw(
        i1, h, i1 + h - j2, j2, p.q, p.s, spectral, conjugated))
    rows = 0
    for n in range(conjugated, 4):
        total = n + (not conjugated)
        for bottom in combinations_with_replacement(range(5, -1, -1), n):
            for ceil, floor in (((9,) * total, (0,) * total),
                                ((7, 6, 4, 2)[:total], (3, 1, 0, 0)[:total])):
                got = symfunc._row_successors(bottom, weight, conjugated, ceil,
                                              floor)
                tops = paths._row_configurations(
                    multiplicities(bottom), not conjugated, ceil[::-1],
                    floor[::-1])
                weighed = [(top, collection_weight(PathCollection(
                    family, bottom, top, 1, max((*top, *bottom, 0)) + 2,
                    (top,)), (spectral,), p, conjugated)) for top in tops]
                want = [(top, w) for top, w in weighed if w != 0.0]
                assert [top for top, _ in got] == [top for top, _ in want]
                assert [repr(w) for _, w in got] == [repr(w) for _, w in want]
                rows += len(got)
    assert rows > 1000


def test_row_configurations_are_the_tops_that_conserve_paths():
    # from every bottom with at most 3 parts <= 5, in F and G^c rows, under
    # the wide and the tight envelope: the row rule lists, in ascending order,
    # just the tops in the envelope's box whose row, derived by conservation,
    # keeps every horizontal edge in {0, 1}
    rows = rejected = 0
    for left_entry in (True, False):
        for n in range(4):
            total = n + left_entry
            for bottom in combinations_with_replacement(range(5, -1, -1), n):
                for ceil, floor in (((9,) * total, (0,) * total),
                                    ((7, 6, 4, 2)[:total],
                                     (3, 1, 0, 0)[:total])):
                    top_col = max(ceil, default=0)
                    box = [top for top in combinations_with_replacement(
                               range(top_col, -1, -1), total)
                           if all(f <= t <= c
                                  for t, f, c in zip(top, floor, ceil))]
                    want = sorted(
                        (top for top in box if all(
                            v[3] in (0, 1) for _, v in paths.row_vertices(
                                bottom, top, top_col + 2, left_entry))),
                        key=lambda top: top[::-1])
                    assert paths._row_configurations(
                        multiplicities(bottom), left_entry, ceil[::-1],
                        floor[::-1]) == want, (bottom, left_entry, ceil)
                    rows += len(want)
                    rejected += len(box) - len(want)
    assert rows > 1000 and rejected > 5 * rows


def test_collections_come_in_lexicographic_order():
    # checks.route_agreement sums the weights in list order and the Gibbs
    # census reads its patterns from this list, so the order is pinned: by
    # the cross-sections read ascending, row 1 first
    for cols in (enumerate_F_collections((), (6, 3, 1), 3),
                 enumerate_F_collections((1,), (5, 3, 0), 2),
                 enumerate_Gc_collections((3, 1), (5, 4), 3),
                 enumerate_Gc_collections((2, 0, 0), (4, 2, 1), 2)):
        keys = [tuple(tuple(sorted(sec)) for sec in c.sections) for c in cols]
        assert len(keys) > 1 and keys == sorted(set(keys))


def test_enumeration_returns_the_only_reference_to_its_list():
    # the list of collections must be freed with the caller's last
    # reference, not held by a cycle (a closure that refers to itself, say)
    # until the cyclic collector runs
    for enumerate_, mu, lam in ((enumerate_F_collections, (), (3, 1)),
                                (enumerate_Gc_collections, (1,), (3,))):
        cols = enumerate_(mu, lam, 2)
        assert len(cols) > 1 and sys.getrefcount(cols) == 2


def test_row_walkers_return_the_only_reference_to_their_lists():
    # the same for the one-row walks: transfer's successor lists and the
    # enumeration's row configurations
    p = ModelParams(q=0.5, u=2.0, v=0.25)
    weight = cache(lambda i1, h, j2: vertex_weight_raw(
        i1, h, i1 + h - j2, j2, p.q, p.s, p.u, False))
    got = symfunc._row_successors((3, 1), weight, False, (9,) * 3, (0,) * 3)
    assert len(got) > 1 and sys.getrefcount(got) == 2
    tops = paths._row_configurations({3: 1, 1: 1}, True, (9,) * 3, (0,) * 3)
    assert len(tops) > 1 and sys.getrefcount(tops) == 2


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
    assert any(all(v[3] == 0 for v in vertex_types(c)) for c in cols)
    assert len(enumerate_Gc_collections((0,), (5,), 1)) == 1
    # up-right paths cannot move left
    assert enumerate_Gc_collections((4, 2), (3, 1), 2) == []


def test_edge_consistency_everywhere():
    for c in enumerate_F_collections((), (3, 1), 2):
        validate(c)
    for c in enumerate_Gc_collections((2, 0), (4, 1), 2):
        validate(c)


def test_validate_rejects_chains_that_do_not_interlace():
    # a G^c step from (3,) to (2,) moves the path left: the derived
    # horizontal edge at x = 2 is -1
    pc = PathCollection(family="Gc", mu=(3,), lam=(2,), n_rows=1, n_cols=5,
                        sections=((2,),))
    assert pc.rows[0][2] == (0, 0, 1, -1)
    with pytest.raises(AssertionError, match="do not interlace"):
        validate(pc)
    # an F row whose entering path never turns up leaves the window
    with pytest.raises(AssertionError, match="leaves window"):
        validate(PathCollection(family="F", mu=(), lam=(), n_rows=1,
                                n_cols=3, sections=((),)))
    # a chain whose top is not lam
    with pytest.raises(AssertionError, match="top boundary"):
        validate(PathCollection(family="Gc", mu=(1,), lam=(2,), n_rows=1,
                                n_cols=4, sections=((1,),)))
    validate(PathCollection(family="Gc", mu=(1,), lam=(2,), n_rows=1, n_cols=4,
                            sections=((2,),)))


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
        counts = multiplicities(vertex_types(c))
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
    flagged = [c for c in cols if any(v == (1, 0, 1, 0) for v in vertex_types(c))]
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
