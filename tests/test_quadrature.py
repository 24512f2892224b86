import math

import numpy as np
import pytest

from sixvertexlab.quadrature import QuadratureError, adaptive


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
