import os

import numpy as np
import pytest
from hypothesis import settings

from cosym.charts import random_polynomial  # noqa: F401  (imported by the tests)

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# test that fails in CI fails the same way locally under that profile.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_point(chart, rng):
    box = chart.sample_box()
    return chart.point([rng.uniform(lo, hi) for lo, hi in box])
