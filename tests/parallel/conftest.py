"""Fixtures for the serial↔parallel equivalence suite.

Everything here is deliberately small: the point of these tests is
bit-for-bit agreement between worker counts, not statistical accuracy,
so two prediction windows and a handful of nodes are plenty.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamics import CircuitSimulator, IntegrationConfig
from repro.core.operators import CouplingOperator


@pytest.fixture(scope="module")
def small_operator():
    """A 12-node convex coupling operator for circuit-level tests."""
    rng = np.random.default_rng(11)
    n = 12
    raw = rng.normal(size=(n, n)) * 0.3
    J = (raw + raw.T) / 2.0
    np.fill_diagonal(J, 0.0)
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return CouplingOperator(J, h, backend="dense")


@pytest.fixture(scope="module")
def noisy_simulator():
    """A simulator with node noise active, so RNG equality is load-bearing."""
    return CircuitSimulator(
        config=IntegrationConfig(dt=0.05, record_every=4, node_noise_std=0.05)
    )
