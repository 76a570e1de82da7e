"""Property tests (hypothesis) of the quadrature and spectral routes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import circentropy as ce


@settings(deadline=None, max_examples=20, derandomize=True)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       gap=st.floats(1e-6, 1e-2))
def test_quadrature_agrees_with_spectral_near_coalescence(n, seed, gap):
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
    angles[1] = angles[0] + gap
    p = ce.from_angles(angles)
    a = p.coefficients
    spectral = ce.log_pair_spectral(a, a, b_roots=p.roots)
    quadrature = ce.log_pair_quadrature(a, a, b_roots=p.roots)
    assert abs(quadrature - spectral) <= 1e-7 * ce.parseval_norm(p)
