from collections import Counter

import numpy as np
import pytest

from sixvertexlab import symfunc
from sixvertexlab.core import ModelParams
from sixvertexlab.measure import HalfStrictGTPattern
from sixvertexlab.paths import enumerate_F_collections
from sixvertexlab.weights import six_vertex_weights

# the vertex types (i1, j1, i2, j2) that carry six_vertex_weights' w1..w6
SIX_VERTEX_TYPES = ((0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0),
                    (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0))


@pytest.fixture
def six_vertex_types():
    """SIX_VERTEX_TYPES, in w1..w6 order."""
    return SIX_VERTEX_TYPES


@pytest.fixture
def params():
    """The workhorse ferroelectric point: q = 0.5 (s = sqrt 2), u = 2, v = 1/4."""
    return ModelParams(q=0.5, u=2.0, v=0.25)


@pytest.fixture
def band_points(params):
    """Two points of the band q in [.4, .6], u/s in [1.25, 1.5], uv in
    [.35, .55]: the workhorse point and one at q = .45, u/s = 1.3, uv = .4."""
    u = 1.3 * 0.45 ** -0.5
    return [params, ModelParams(q=0.45, u=u, v=0.4 / u)]


@pytest.fixture
def count_strict_rows(monkeypatch):
    """Replace a module's StrictRow with a subclass that counts the row
    operators built, the rows applied and the vertex weights read (five per
    table build); returns that Counter."""
    def patch(module) -> Counter:
        counts = Counter()
        weight = symfunc.vertex_weight_raw

        def counted_weight(*args):
            counts["weights"] += 1
            return weight(*args)

        class Counted(symfunc.StrictRow):
            def __init__(self, *args):
                counts["built"] += 1
                super().__init__(*args)

            def apply(self, amp):
                counts["applied"] += 1
                return super().apply(amp)

        monkeypatch.setattr(module, "StrictRow", Counted)
        monkeypatch.setattr(symfunc, "vertex_weight_raw", counted_weight)
        return counts
    return patch


@pytest.fixture
def hermite():
    """Probabilists' (monic) Hermite polynomial h_n(x), by h_0 = 1, h_1 = x,
    h_{n+1} = x h_n - n h_{n-1}: the reference whose Vandermonde determinant
    the GUE tests check."""
    def h(n: int, x: float) -> float:
        h_prev, h_cur = 1.0, x
        if n == 0:
            return 1.0
        for m in range(1, n):
            h_prev, h_cur = h_cur, x * h_cur - m * h_prev
        return h_cur
    return h


@pytest.fixture
def census():
    """The six-vertex Gibbs census of a strictly increasing top row, the
    oracle that the lower-row sampler is checked against: every half-strict
    Gelfand-Tsetlin pattern with that top, as the F-type path collection
    from the empty signature whose cross-sections are its rows (so every
    section strict), weighted w1^N1 ... w6^N6 over the window [1, top[-1]] x
    [1, k].  Returns the patterns sorted by their rows read downward, their
    collections, the (n, 6) counts in SIX_VERTEX_TYPES order and the float
    weights, multiplied left to right."""
    index = {vertex: i for i, vertex in enumerate(SIX_VERTEX_TYPES)}

    def patterns(top, params: ModelParams):
        top, ws = tuple(top), six_vertex_weights(params)
        found = []
        for pc in enumerate_F_collections((), top[::-1], len(top)):
            if any(len(set(sec)) < len(sec) for sec in pc.sections):
                continue
            counts = [0] * 6
            for row in pc.rows:
                for vertex in row[1:top[-1] + 1]:
                    counts[index[vertex]] += 1
            weight = 1.0
            for w_i, n_i in zip(ws, counts):
                weight *= w_i ** n_i
            rows = tuple(tuple(sorted(sec)) for sec in pc.sections)
            found.append((HalfStrictGTPattern(rows=rows), pc, counts, weight))
        found.sort(key=lambda entry: entry[0].rows[::-1])
        pats, pcs, counts, weights = zip(*found)
        return list(pats), list(pcs), np.array(counts), np.array(weights)
    return patterns
