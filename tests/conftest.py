import numpy as np
import pytest

from cosym.charts import random_polynomial  # noqa: F401  (imported by the tests)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_point(chart, rng):
    box = chart.sample_box()
    return chart.point([rng.uniform(lo, hi) for lo, hi in box])
