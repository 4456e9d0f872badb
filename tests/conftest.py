import pytest

from taplab.priors import three_point


@pytest.fixture(scope="module")
def tp():
    """The three-point prior, one per test module, so that no module sees the
    channel rows and state-evolution schedules another module cached on it."""
    return three_point()
