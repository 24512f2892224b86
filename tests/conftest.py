import random

import pytest

from sixvertexlab.core import ModelParams


@pytest.fixture
def params():
    """The workhorse ferroelectric point: q = 0.5 (s = sqrt 2), u = 2, v = 1/4."""
    return ModelParams(q=0.5, u=2.0, v=0.25)


def random_ferroelectric(rng: random.Random, need_v: bool = True) -> ModelParams:
    """Draw a valid parameter point v^{-1} > u > s > 1 uniformly-ish."""
    q = rng.uniform(0.15, 0.85)
    s = q ** -0.5
    u = s * (1.0 + rng.uniform(0.05, 1.5))
    v = rng.uniform(0.05, 0.95) / u if need_v else 0.25 / u
    return ModelParams(q=q, u=u, v=v)


@pytest.fixture
def band_points(params):
    """Two points of the band q in [.4, .6], u/s in [1.25, 1.5], uv in
    [.35, .55]: the workhorse point and one at q = .45, u/s = 1.3, uv = .4."""
    u = 1.3 * 0.45 ** -0.5
    return [params, ModelParams(q=0.45, u=u, v=0.4 / u)]
