"""Property tests (hypothesis) of the quadrature and spectral routes and the
moments."""

import numpy as np
from hypothesis import example, given, settings
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


@settings(deadline=None, max_examples=23, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       theta=st.floats(0.0, 2 * np.pi), gap=st.none() | st.floats(1e-6, 1e-2))
@example(n=40, seed=1, theta=2.0, gap=None)
@example(n=23, seed=2, theta=0.5, gap=1e-6)
def test_verify_main_is_invariant_under_rotation(n, seed, theta, gap):
    # Rotating every root by theta rotates |p| on the circle, and with it
    # |q| and the Blaschke quotient r, so no integral or moment moves.
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, n)
    if gap is not None and n >= 2:
        angles[1] = angles[0] + gap
    leading = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    before = ce.verify_main(ce.from_angles(angles, leading))
    after = ce.verify_main(ce.from_angles(angles + theta, leading))
    for name in ("entropy", "jensen_term", "polar_term", "moment_polar_term"):
        assert abs(getattr(after, name) - getattr(before, name)) <= 1e-12 * before.norm, name


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=st.integers(20, 64), seed=st.integers(0, 2**32 - 1),
       gap=st.none() | st.floats(1e-6, 1e-2))
def test_moment_identities_hold_at_higher_degree(n, seed, gap):
    # M_1 = Gamma by Parseval, and r = 1/h - 1 from the roots times q from
    # the coefficients gives back q*, also with a pair of zeros close together.
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, n)
    if gap is not None:
        angles[1] = angles[0] + gap
    leading = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    p = ce.normalize_self_inversive(ce.from_angles(angles, leading)).normalized
    seq = ce.moments(ce.polar_factor(p))
    assert abs(seq.values[1] - ce.gamma_remainder(p)) <= 1e-12 * ce.parseval_norm(p)
    assert seq.ratio_series_residual <= 1e-12
