"""Property tests (hypothesis) of the quadrature and spectral routes and the
moments."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circentropy as ce
from circentropy.polycircle import TAU_UNIMOD


@settings(deadline=None, max_examples=20, derandomize=True)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       gap=st.floats(1e-6, 1e-2))
def test_quadrature_agrees_with_spectral_near_coalescence(n, seed, gap):
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
    angles[1] = angles[0] + gap
    p = ce.from_angles(angles)
    a = p.coefficients
    spectral = ce.ratio_functional(p).entropy_integral
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
    p = ce.normalize_self_inversive(ce.from_angles(angles, leading))
    seq = ce.moments(ce.polar_factor(p))
    assert abs(seq.values[1] - ce.gamma_remainder(p)) <= 1e-12 * ce.parseval_norm(p)
    assert seq.ratio_series_residual <= 1e-12


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=st.integers(3, 24), seed=st.integers(0, 2**32 - 1),
       multiplicity=st.sampled_from([2, 3]))
def test_x_log_x_is_zero_at_coalescence(n, seed, multiplicity):
    # At an exact double or triple zero p and q vanish together, and the
    # quadrature integrand takes x log x = 0 there; the spectral pairing
    # never forms a pointwise log, so the routes must still agree.
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
    angles[1:multiplicity] = angles[0]
    p = ce.normalize_self_inversive(ce.from_angles(angles))
    a = p.coefficients
    rf = ce.ratio_functional(p)
    norm = ce.parseval_norm(p)
    entropy = ce.log_pair_quadrature(a, a, b_roots=p.roots)
    jensen = ce.log_pair_quadrature(a, ce.polar_factor(p).q)
    assert abs(entropy - rf.entropy_integral) <= 1e-7 * norm
    assert abs(jensen - rf.jensen_integral) <= 1e-7 * norm


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       log_modulus=st.floats(-7.0, 7.0), phase=st.floats(0.0, 2 * np.pi))
def test_normalized_entropy_is_invariant_under_scaling(n, seed, log_modulus, phase):
    # E(cp) = |c|^2 (E(p) + N(p) log|c|^2) and N(cp) = |c|^2 N(p), so
    # E/N - log N does not move.
    angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
    p = ce.from_angles(angles)
    c = np.exp(log_modulus + 1j * phase)

    def normalized(poly):
        rep = ce.verify_main(poly)
        return rep.entropy / rep.norm - np.log(rep.norm)

    base = normalized(p)
    assert abs(normalized(p.scaled(c)) - base) <= 1e-12 * max(1.0, abs(base))


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       log_excess=st.floats(math.log10(TAU_UNIMOD) + 0.01, math.log10(0.5)),
       outside=st.booleans())
def test_off_circle_input_is_rejected(n, seed, log_excess, outside):
    # One root off the circle by more than TAU_UNIMOD is refused, inside
    # or outside; by half of it, the root is projected and accepted.
    rng = np.random.default_rng(seed)
    roots = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    sign = 1.0 if outside else -1.0
    off = roots.copy()
    off[-1] *= 1.0 + sign * 10.0**log_excess
    with pytest.raises(ce.NonUnimodularRoot):
        ce.from_roots(off)
    near = roots.copy()
    near[-1] *= 1.0 + sign * 0.5 * TAU_UNIMOD
    assert np.all(np.abs(np.abs(ce.from_roots(near).roots) - 1.0) <= 1e-15)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=st.integers(1, 128), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 6.0), binomial=st.booleans())
@example(n=20, seed=0, log_scale=4.0, binomial=True)
@example(n=128, seed=1, log_scale=6.0, binomial=True)
def test_verdicts_are_invariant_under_scaling(n, seed, log_scale, binomial):
    # p -> c p multiplies N and every gap by |c|^2, so each status, and
    # every gap relative to N, stays as it was; binomials have gaps of
    # rounding size.
    rng = np.random.default_rng(seed)
    if binomial:
        angles = (2 * np.pi * rng.random() + 2 * np.pi * np.arange(n)) / n
    else:
        angles = rng.uniform(0, 2 * np.pi, n)
    p = ce.from_angles(angles, np.exp(2j * np.pi * rng.random()))
    c = 10.0 ** log_scale * np.exp(2j * np.pi * rng.random())
    before, after = ce.verify_stack(ce.stack([p, p.scaled(c)]))
    assert after.status == before.status == "ok"
    assert after.inequalities_ok and after.extremal == before.extremal
    for name in ("main_gap", "strengthened_gap", "jensen_gap", "polar_gap"):
        relative = getattr(after, name) / after.norm
        assert abs(relative - getattr(before, name) / before.norm) <= 1e-12, name
