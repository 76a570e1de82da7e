"""Tests for construction, reflection, normalization, and the polar factor."""

import cmath
import math

import numpy as np
import pytest

import circentropy as ce
from circentropy.corpus import instance_rng, random_circle_poly
from circentropy.polycircle import TAU_SEP, _leja_order, eval_poly, expand_from_roots


def test_from_roots_single_linear_factor():
    p = ce.from_roots([-1.0], 1.0)
    assert np.allclose(p.coefficients, [1.0, 1.0])
    assert p.degree == 1
    assert p.leading == 1.0


def test_from_roots_binomial_family():
    # roots of z^n = -omega expand to c(omega + z^n)
    n, c = 6, 0.3 - 0.4j
    omega = np.exp(1.1j)
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    p = ce.from_roots(np.exp(1j * angles), c)
    expected = np.zeros(n + 1, dtype=complex)
    expected[0] = c * omega
    expected[n] = c
    assert np.max(np.abs(p.coefficients - expected)) < 1e-14


def test_from_roots_double_root():
    p = ce.from_roots([1.0, 1.0])
    assert np.allclose(p.coefficients, [1.0, -2.0, 1.0])


def test_from_roots_projects_onto_circle():
    p = ce.from_roots([(1.0 + 5e-13) * 1j])
    assert abs(abs(p.roots[0]) - 1.0) == 0.0


def test_from_roots_rejects_bad_input():
    with pytest.raises(ce.NonUnimodularRoot):
        ce.from_roots([0.5])
    with pytest.raises(ce.ZeroLeading):
        ce.from_roots([1.0], 0.0)


@pytest.mark.parametrize("angles, named", [
    ([np.inf, 1.0], "inf"),
    ([0.5, -np.inf, np.nan], "-inf"),
    # a stack with one bad row: the first bad angle in C order is named
    ([[0.1, 0.2, 0.3], [0.4, np.nan, np.inf], [0.7, 0.8, 0.9]], "nan"),
])
def test_from_angles_refuses_angles_that_are_not_finite(angles, named):
    # Refused before exp(1j * angle) builds a NaN root, and numpy warns of it.
    with pytest.raises(ce.NonUnimodularRoot) as info:
        ce.from_angles(angles)
    assert str(info.value) == f"root angles must be finite, got {named}"


def test_expand_reproduces_coefficients_at_scale():
    # relative re-expansion error stays within tolerance through n = 64
    for n in (8, 32, 64):
        rng = instance_rng(1, n)
        angles = rng.uniform(0, 2 * np.pi, n)
        p = ce.from_angles(angles, 1.3 - 0.2j)
        again = expand_from_roots(p.roots, p.leading)
        scale = np.max(np.abs(p.coefficients))
        assert np.max(np.abs(again - p.coefficients)) <= 1e-10 * scale
        # a_0 = a * prod(-tau), a_n = a
        assert p.coefficients[-1] == p.leading
        prod = p.leading * np.prod(-p.roots)
        assert abs(p.coefficients[0] - prod) < 1e-10 * scale


def _leja_order_reference(roots):
    # The original greedy loop, restricted to untaken indices at every step;
    # _leja_order must reproduce its choices exactly.
    m = roots.size
    if m < 3:
        return np.arange(m)
    order = np.empty(m, dtype=int)
    taken = np.zeros(m, dtype=bool)
    first = int(np.argmax(np.abs(roots)))
    order[0] = first
    taken[first] = True
    logdist = np.full(m, -np.inf)
    with np.errstate(divide="ignore"):
        logdist[~taken] = np.log(np.abs(roots[~taken] - roots[first]))
    for k in range(1, m):
        candidates = np.nonzero(~taken)[0]
        idx = int(candidates[np.argmax(logdist[candidates])])
        order[k] = idx
        taken[idx] = True
        if k < m - 1:
            with np.errstate(divide="ignore"):
                logdist[~taken] += np.log(np.abs(roots[~taken] - roots[idx]))
    return order


def _expand_reference(roots, leading):
    coeffs = np.array([leading], dtype=complex)
    for tau in roots[_leja_order_reference(roots)]:
        nxt = np.zeros(coeffs.size + 1, dtype=complex)
        nxt[1:] = coeffs
        nxt[: coeffs.size] -= tau * coeffs
        coeffs = nxt
    return coeffs


def _leja_oracle_cases():
    rng = instance_rng(12)
    for m in list(range(1, 81)) + [128, 256]:
        yield np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    for m in range(1, 41):
        # roots of unity, rotated and in angle order
        yield np.exp(1j * (rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(m) / m))
        repeated = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        repeated[rng.integers(0, m, m // 2)] = repeated[rng.integers(0, m)]
        yield repeated
        yield np.full(m, np.exp(1j * rng.uniform(0, 2 * np.pi)))
        yield rng.standard_normal(m) + 1j * rng.standard_normal(m)


def test_leja_order_matches_greedy_reference_bit_for_bit():
    leading = 1.3 - 0.2j
    by_size = {}
    for roots in _leja_oracle_cases():
        order = _leja_order(roots[None])[0]
        assert np.array_equal(order, _leja_order_reference(roots)), roots.size
        got = expand_from_roots(roots, leading)
        want = _expand_reference(roots, leading)
        assert np.array_equal(got, want), roots.size
        assert got.tobytes() == want.tobytes(), roots.size
        by_size.setdefault(roots.size, []).append(roots)
    # a stack of the cases of one size gets each row's order
    for m, cases in by_size.items():
        order = _leja_order(np.stack(cases))
        for row, roots in zip(order, cases):
            assert np.array_equal(row, _leja_order_reference(roots)), m


def test_normalize_self_inversive_branch():
    # p = z^2 - 1 has lambda = -1; the convention picks eta = i
    p = ce.from_roots([1.0, -1.0])
    res = ce.normalize_self_inversive(p)
    assert np.max(np.abs(res.coefficients - np.array([-1j, 0, 1j]))) < 1e-15


def test_normalize_already_self_inversive():
    # z + 1 is self-inversive: eta = 1
    p = ce.from_roots([-1.0])
    res = ce.normalize_self_inversive(p)
    assert np.max(np.abs(res.coefficients - p.coefficients)) < 1e-15


def test_normalize_preserves_moduli():
    # binomial family: normalization changes coefficients only by a phase
    rng = instance_rng(3)
    n = 5
    omega = np.exp(2j * np.pi * rng.random())
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    p = ce.from_angles(angles, 0.7 * np.exp(0.3j))
    res = ce.normalize_self_inversive(p)
    assert np.allclose(np.abs(res.coefficients), np.abs(p.coefficients))
    ce.polar_factor(res)  # NotSelfInversive unless within TAU_EXPAND


def test_normalized_coefficients_conjugate_symmetric():
    for n in (2, 5, 11):
        p = random_circle_poly(n, instance_rng(4, n))
        a = p.coefficients
        assert np.max(np.abs(a - np.conj(a[::-1]))) < 1e-10 * np.max(np.abs(a))


def test_polar_factor_examples():
    d = ce.polar_factor(ce.from_roots([1.0, -1.0], 1j))  # i(z^2-1)
    assert np.allclose(d.q, [-1j, 0])
    assert np.allclose(d.qstar, [0, 0, 1j])

    p = ce.from_roots([1.0, 1.0])  # (z-1)^2
    d = ce.polar_factor(p)
    assert np.allclose(d.q, [1.0, -1.0])
    assert np.allclose(d.qstar, [0.0, -1.0, 1.0])
    assert not d.simple_zeros

    n = 7
    p = ce.from_angles((np.pi + 2 * np.pi * np.arange(n)) / n)  # 1 + z^n
    d = ce.polar_factor(p)
    assert np.max(np.abs(d.q - np.eye(1, n, 0)[0])) < 1e-12
    assert np.max(np.abs(d.qstar - np.eye(1, n + 1, n)[0])) < 1e-12
    assert d.simple_zeros


def test_polar_factor_identity_and_reflection():
    for n in (2, 6, 13):
        p = random_circle_poly(n, instance_rng(5, n))
        d = ce.polar_factor(p)
        total = np.zeros(n + 1, dtype=complex)
        total[: d.q.size] += d.q
        total += d.qstar
        scale = np.max(np.abs(p.coefficients))
        assert np.max(np.abs(total - p.coefficients)) < 1e-10 * scale
        # qstar is the degree-n reflection of q: conj(q_{n-j}), q_n = 0
        reflected = np.conj(np.append(d.q, 0)[::-1])
        assert np.max(np.abs(reflected - d.qstar)) < 1e-10 * scale
        assert abs(d.q[0] - p.coefficients[0]) == 0.0


def test_polar_factor_rejects_non_self_inversive():
    p = ce.from_roots([1.0, -1.0])  # z^2 - 1 is anti-self-inversive
    with pytest.raises(ce.NotSelfInversive):
        ce.polar_factor(p)


def test_parseval_norm_values():
    assert ce.parseval_norm(ce.from_roots([-1.0])) == 2.0
    assert abs(ce.parseval_norm(ce.from_roots([1.0, 1.0])) - 6.0) < 1e-14
    n = 4
    omega = np.exp(0.9j)
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    p = ce.from_angles(angles, 1 / math.sqrt(2))
    assert abs(ce.parseval_norm(p) - 1.0) < 1e-14


def test_parseval_matches_quadrature():
    p = random_circle_poly(9, instance_rng(6, 9))
    quad = ce.circle_quadrature(
        lambda t: np.abs(eval_poly(p.coefficients, np.exp(1j * t))) ** 2)
    assert abs(ce.parseval_norm(p) - quad) < 1e-8


def test_gamma_remainder_values():
    assert ce.gamma_remainder(ce.from_roots([1.0, 1.0])) == 1.0
    assert ce.gamma_remainder(ce.from_roots([np.exp(0.3j)])) == 0.0
    n = 5
    omega = np.exp(0.2j)
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    p = ce.from_angles(angles, 2.0)
    assert ce.gamma_remainder(p) < 1e-25


def test_weighted_form_and_partial_energy():
    # S_n(qstar) of (z-1)^2 equals its remainder sum
    d = ce.polar_factor(ce.from_roots([1.0, 1.0]))
    assert ce.weighted_form_Sn(d.qstar, 2) == 1.0
    assert ce.weighted_form_Sn([5.0, 0, 0, 9.0], 3) == 0.0
    assert ce.weighted_form_Sn([0, 1.0], 3) == 2.0
    with pytest.raises(ValueError):
        ce.weighted_form_Sn([1.0], 1)

    assert ce.partial_energy_Al([1.0, 1.0], 0) == 1.0
    assert ce.partial_energy_Al([1.0, 1.0], 5) == 2.0
    g = instance_rng(7).standard_normal(6)
    assert abs(ce.partial_energy_Al(g, 99) - ce.parseval_norm(g)) < 1e-14
    vals = [ce.partial_energy_Al(g, l) for l in range(8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_perturb_roots_schedule_and_convergence():
    p = ce.from_roots([1.0, 1.0])
    eps = 1e-3
    pe = ce.perturb_roots(p, eps)
    expected = np.exp(1j * np.array([eps / 2, eps]))
    assert np.max(np.abs(np.sort_complex(pe.roots) - np.sort_complex(expected))) < 1e-15
    assert ce.polar_factor(pe).simple_zeros

    # coefficientwise convergence with O(eps) rate and eta -> 1
    prev = np.inf
    for eps in (1e-2, 1e-4, 1e-6):
        pe = ce.perturb_roots(p, eps)
        dist = np.max(np.abs(pe.coefficients - p.coefficients))
        assert dist < 3 * eps
        assert dist < prev
        prev = dist


def test_perturb_roots_keeps_simple_inputs_simple():
    p = random_circle_poly(6, instance_rng(8, 6))
    pe = ce.perturb_roots(p, 1e-5)
    assert ce.polar_factor(pe).simple_zeros
    # an epsilon that is not finite and positive is refused before any
    # rotation is tried: no RuntimeWarning, no SeparationFailure
    for epsilon in (0.0, -1.0, np.nan, np.inf):
        for q in (p, ce.from_roots([1.0, 1.0])):
            with pytest.raises(ValueError, match="finite and positive"):
                ce.perturb_roots(q, epsilon)


def _perturb_roots_reference(p, epsilon):
    # The rule perturb_roots had with a normalization of its own: the
    # least-squares multiplier lambda, cmath.sqrt, and the square root
    # nearest 1.  perturb_roots must give its bits.
    n = p.degree
    rng = np.random.default_rng(0)
    offsets = epsilon * np.arange(1, n + 1) / n
    for _ in range(8):
        rotated = p.roots * np.exp(1j * offsets)
        if n < 2:
            break
        diffs = np.abs(rotated[:, None] - rotated[None, :])
        diffs[np.diag_indices(n)] = np.inf
        if np.min(diffs) > 0:
            break
        offsets = epsilon * (np.arange(1, n + 1) - 0.5 * rng.random(n)) / n
    coeffs = expand_from_roots(rotated, p.leading)
    lam = (np.conj(coeffs) * np.conj(coeffs[::-1])).sum(axis=-1)
    eta = cmath.sqrt(complex(lam / np.abs(lam)))
    if abs(eta - 1) > abs(eta + 1):
        eta = -eta
    return eta * coeffs, rotated


def test_perturb_roots_matches_reference_bit_for_bit():
    # criterion 10's instances over its whole schedule, and a triple zero
    schedule = [2.0**-k for k in range(1, 21)]
    cases = []
    for i in range(20):
        rng = instance_rng(104, i)
        n = int(rng.integers(2, 9))
        cases.append(random_circle_poly(n, rng, multiple=True, unit_norm=True))
    cases.append(ce.normalize_self_inversive(ce.from_roots([1j, 1j, 1j])))
    # both zeros rotate onto angle 0.25 at epsilon = 2^-2: the jitter runs
    cases.append(ce.from_angles([0.125, 0.0]))
    for i, p in enumerate(cases):
        for eps in schedule:
            pe = ce.perturb_roots(p, eps)
            coeffs, roots = _perturb_roots_reference(p, eps)
            assert pe.coefficients.tobytes() == coeffs.tobytes(), (i, eps)
            assert pe.roots.tobytes() == roots.tobytes(), (i, eps)


def test_perturb_roots_jitter_is_the_same_on_every_call():
    # Both zeros rotate onto angle 0.25, so the jitter runs; it once drew
    # from OS entropy and gave other bits on each call.  The frozen bits
    # are those of the generator seeded with 0.
    p = ce.from_angles([0.125, 0.0])
    first, second = ce.perturb_roots(p, 2**-2), ce.perturb_roots(p, 2**-2)
    assert first.coefficients.tobytes() == second.coefficients.tobytes()
    assert first.coefficients.tobytes().hex() == (
        "f023f8da9037ef3f3b7fb0582724cc3f2c98ccf275ffffbf6e9b42a89753743c"
        "f123f8da9037ef3f3d7fb0582724ccbf")
    assert first.roots.tobytes().hex() == (
        "65d36f6fb44bef3f9143a44ee6b4ca3f7ca27ded5f22ef3f2194b1937592cd3f")


def test_zero_freeness_of_polar_factor():
    # q never vanishes inside the disk; on the circle too when zeros are simple
    inner = 0.999 * np.exp(1j * np.arange(1 << 12) * (2 * np.pi / (1 << 12)))
    boundary = np.exp(1j * np.arange(1 << 12) * (2 * np.pi / (1 << 12)))
    for n in range(2, 13):
        for i in range(200):
            p = random_circle_poly(n, instance_rng(9, n, i))
            d = ce.polar_factor(p)
            assert np.min(np.abs(eval_poly(d.q, inner))) > 0.0
            if d.simple_zeros:
                assert np.min(np.abs(eval_poly(d.q, boundary))) > 0.0


def test_blaschke_boundary_modulus_one():
    grid = np.exp(1j * np.arange(1 << 10) * (2 * np.pi / (1 << 10)))
    for n in (2, 5, 9):
        for i in range(20):
            p = random_circle_poly(n, instance_rng(10, n, i))
            d = ce.polar_factor(p)
            qv = eval_poly(d.q, grid)
            mask = np.abs(qv) > TAU_SEP
            ratio = np.abs(eval_poly(d.qstar, grid[mask]) / qv[mask])
            assert np.max(np.abs(ratio - 1.0)) < 1e-10
            assert d.qstar[0] == 0.0


def test_unimodular_invariance():
    p = random_circle_poly(7, instance_rng(11, 7))
    eta = np.exp(0.77j)
    q = p.scaled(eta)
    assert abs(ce.parseval_norm(p) - ce.parseval_norm(q)) < 1e-12
    assert abs(ce.gamma_remainder(p) - ce.gamma_remainder(q)) < 1e-12
    rp, rq = ce.ratio_functional(p), ce.ratio_functional(q)
    assert abs(rp.entropy_integral - rq.entropy_integral) < 1e-12
    assert abs(rp.jensen_integral - rq.jensen_integral) < 1e-12


def test_inconsistent_reflection_detects_off_circle_input():
    # coefficients of (z-2)(z+1) are not a unimodular multiple of their
    # reflection; a hand-built value with such coefficients must be rejected
    bad = ce.CirclePoly(np.array([-2.0, -1.0, 1.0], dtype=complex),
                        np.array([1.0, -1.0], dtype=complex))
    with pytest.raises(ce.InconsistentReflection):
        ce.normalize_self_inversive(bad)


def test_orthogonal_reflection_is_told_apart_from_underflow():
    # 1 + (1 - i) z + i z^2 is exactly orthogonal to its reflection, and is
    # refused as such; a binomial scaled by 1e-170 has every product in
    # <p, refl> underflow to 0 as well, and is refused as an underflow.
    orthogonal = ce.CirclePoly(np.array([1.0, 1.0 - 1.0j, 1.0j]),
                               np.array([1.0, -1.0], dtype=complex))
    with pytest.raises(ce.InconsistentReflection, match="orthogonal"):
        ce.normalize_self_inversive(orthogonal)
    tiny = ce.from_roots([1.0, 1.0, 1.0, 1.0]).scaled(1e-170)
    with pytest.raises(ce.IllConditioned, match="underflow"):
        ce.normalize_self_inversive(tiny)


def test_coefficient_json_round_trip():
    coeffs = np.array([1.5 - 2j, 0.0, 3j])
    data = [[1.5, -2.0], [0.0, 0.0], [0.0, 3.0]]
    assert np.array_equal(ce.coefficients_from_json(data), coeffs)
