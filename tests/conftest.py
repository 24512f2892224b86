import pytest

from sixvertexlab.core import ModelParams


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
