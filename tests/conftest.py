"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def separated():
    """Moves a generator past every draw of n angles with two distinct zeros
    closer than ``gap`` around the circle, and returns it: the next
    ``random_circle_poly(n, rng)`` takes the first draw that is not, so
    grid-based checks stay meaningful."""
    def advance(rng, n, gap=0.05):
        while True:
            state = rng.bit_generator.state
            distinct = np.unique(np.mod(rng.uniform(0.0, 2.0 * np.pi, n), 2 * np.pi))
            gaps = np.diff(np.append(distinct, distinct[0] + 2 * np.pi))
            if distinct.size < 2 or gaps.min() >= gap:
                rng.bit_generator.state = state
                return rng

    return advance
