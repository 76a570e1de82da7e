"""Extended-precision reruns agree with the double-precision spectral route."""

import json
import math

import mpmath
import numpy as np
import pytest

import circentropy as ce
from circentropy.corpus import instance_rng, random_circle_poly
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


@pytest.mark.parametrize("n, k", [(8, 0), (8, 1), (128, 1)])
def test_referee_meets_its_precision(n, k):
    # At n = 8 a tanh-sinh quadrature split only at the root angles missed
    # 120 bits by 2.4e-33 (k = 0) and 5.9e-23 (k = 1, Jensen term): log|q|^2
    # is nearly singular at zeros of q just off the circle.  At n = 128 the
    # expansion cancels more than 40 guard bits: 5.2e-29 with 40 alone.
    p = random_circle_poly(n, instance_rng(2801, n, k), multiple=bool(k))
    lo, hi = entropy_values_mp(p, 120), entropy_values_mp(p, 240)
    with mpmath.workprec(240):
        for key, value in hi.items():
            assert abs(lo[key] - value) <= mpmath.mpf(2) ** -110 * max(1, abs(value)), key


# Frozen when highprec integrated with mp.quad, a method independent of the
# algebra, on instances where that quadrature met its 120 bits:
#   p = random_circle_poly(n, instance_rng(2801, n, k), multiple=bool(k))
#   entropy_report_mp(p, 120)
QUADRATURE_ANCHORS = {
    (3, 0): {"norm": "34.1028864882556340148788591322766862",
             "entropy": "147.148151003956854698705556834471748",
             "jensen_term": "105.764147490809162721564512280057946",
             "polar_term": "41.3840035131476919771410445544138025"},
    (12, 0): {"norm": "1002.99250404055446890473937876171655",
              "entropy": "8648.63963318447294145456163926334256",
              "jensen_term": "7339.5389137962107041003756558098987",
              "polar_term": "1309.10071938826223735418598345344386"},
    (5, 1): {"norm": "11.753233218723652345696668816940767",
             "entropy": "37.8368370278954034759888461426009868",
             "jensen_term": "24.7716331443788719452209015268110663",
             "polar_term": "13.0652038835165315307679446157899205"},
}


@pytest.mark.parametrize("n, k", sorted(QUADRATURE_ANCHORS))
def test_referee_matches_frozen_quadrature_values(n, k):
    p = random_circle_poly(n, instance_rng(2801, n, k), multiple=bool(k))
    vals = entropy_values_mp(p, 120)
    with mpmath.workprec(160):
        for key, frozen in QUADRATURE_ANCHORS[n, k].items():
            anchor = mpmath.mpf(frozen)
            assert abs(vals[key] - anchor) <= mpmath.mpf("1e-34") * max(1, abs(anchor)), key


@pytest.mark.parametrize("argv", [
    ["--binomial", "n=3", "--precision", "60"],
    ["--binomial", "n=6", "--precision", "120"],
    # where max(1, N) 2^-(bits + 40 + n) missed the error by 2.9x and 2^77
    ["--binomial", "n=6", "--precision", "60"],
    ["--binomial", "n=128", "--precision", "120"],
    # a term of size about N, where the printed digits set the error
    ["--angles", "[0.3, 0.3, 2.0, 5.0]", "--precision", "60"],
])
def test_referee_bounds_the_error_of_its_jensen_term(argv, capsys):
    # The Jensen term is E - polar: its printed value lies within the
    # jensen_term_abs_error it is printed with of a 260-bit rerun, also
    # where the term is tiny (the binomials' 1e-31 to 1e-27).
    from circentropy.cli import _parse_poly, build_parser, main

    assert main(["verify", *argv]) == 0
    report = json.loads(capsys.readouterr().out)["highprec"]
    assert list(report)[3:5] == ["jensen_term", "jensen_term_abs_error"]
    p = _parse_poly(build_parser().parse_args(["verify", *argv]))
    exact = entropy_values_mp(p, 260)["jensen_term"]
    with mpmath.workprec(300):
        distance = abs(mpmath.mpf(report["jensen_term"]) - exact)
        assert distance <= mpmath.mpf(report["jensen_term_abs_error"]), distance
