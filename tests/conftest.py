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
