import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import entorder as eo

settings.register_profile(
    "ci",
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

DELTA = 1.0


@pytest.fixture(autouse=True)
def numpy_errors_raise():
    """Overflow, division by zero and invalid operations raise FloatingPointError in every test.

    Code that expects one of them says so with its own ``np.errstate``;
    underflow stays ignored, as numpy's default has it.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        yield


@pytest.fixture(scope="session")
def psi_family():
    """Ladder members k = 0..4 at the default grid step, small horizon."""
    return {k: eo.psi_state(k, DELTA, 2000) for k in range(5)}


@pytest.fixture(scope="session")
def tmss_match():
    """Squeezed state on the same grid as the k = 0 ladder member."""
    return eo.tmss(math.exp(-DELTA / 2), 2000)
