"""Shared fixtures and hypothesis strategies for the test suite."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ccsica import bench

settings.register_profile(
    "desk",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@st.composite
def interior_tables(draw):
    """Cell weights for a strictly interior 2x2 probability table."""
    cells = np.array([draw(st.floats(0.02, 1.0)) for _ in range(4)])
    return cells / cells.sum()


@st.composite
def binary_marginals(draw):
    m = draw(st.floats(0.05, 0.95))
    return np.array([m, 1.0 - m])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def five_step_fig4(monkeypatch):
    """bench._FIG4_CONFIGS with each descent cut to 5 steps, so that fig4/fig5 run in moments."""
    monkeypatch.setattr(bench, "_FIG4_CONFIGS", tuple(replace(cfg, max_iter=5) for cfg in bench._FIG4_CONFIGS))
