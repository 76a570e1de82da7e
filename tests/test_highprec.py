"""Extended-precision reruns agree with the double-precision spectral route."""

import math

import numpy as np

import circentropy as ce
from circentropy.highprec import entropy_values_mp


def test_highprec_double_zero():
    p = ce.from_roots([1.0, 1.0])
    vals = entropy_values_mp(p, bits=150)
    assert abs(float(vals["norm"]) - 6.0) < 1e-30
    assert abs(float(vals["entropy"]) - 14.0) < 1e-25
    assert abs(float(vals["jensen_term"]) - 7.0) < 1e-25
    assert abs(float(vals["polar_term"]) - 7.0) < 1e-25


def test_highprec_matches_double_on_random_instance():
    rng = np.random.default_rng(60)
    p = ce.normalize_self_inversive(
        ce.from_angles(rng.uniform(0, 2 * np.pi, 5))
    )
    rf = ce.ratio_functional(p)
    vals = entropy_values_mp(p, bits=150)
    assert abs(rf.entropy_integral - float(vals["entropy"])) < 1e-11
    assert abs(rf.jensen_integral - float(vals["jensen_term"])) < 1e-11


def test_highprec_binomial_equality_case():
    # inputs are treated as exact, so compare against the equality form
    # N(1 + log(N/2)) at the input's own norm, not the ideal 1 - log 2
    n = 4
    omega = np.exp(1.9j)
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    p = ce.from_angles(angles, 1.0 / math.sqrt(2.0))
    vals = entropy_values_mp(p, bits=150)
    import mpmath as mp

    with mp.workprec(150):
        target = vals["norm"] * (1 + mp.log(vals["norm"] / 2))
        assert abs(vals["entropy"] - target) < mp.mpf(2) ** -100
        assert abs(vals["entropy"] - (1 - mp.log(2))) < 1e-15
