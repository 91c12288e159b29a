import gc

import numpy as np
import pytest

from glbopt import LinearGlbProblem


@pytest.fixture
def two_var() -> LinearGlbProblem:
    """The 2x2 worked example: g(x) = (0.5 x2 + 1, 0.5 x1 + 1) ^ 10, fixed point (2, 2)."""
    A = np.array([[0.0, 0.5], [0.5, 0.0]])
    return LinearGlbProblem([(A, np.array([1.0, 1.0]))], U=[10.0, 10.0])


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail any test that leaves the cyclic garbage collector disabled."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
