"""Tests for the entropy objective, the angle search, and coalescence tables."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import circentropy as ce
from circentropy import extremal
from circentropy.corpus import instance_rng, random_circle_poly
from circentropy.extremal import (
    _descend,
    _split_clusters,
    _start,
    _starts,
    angle_gap_deviation,
    objective_and_gradient,
)
from circentropy.log_integrals import MAX_SERIES_DEGREE
from circentropy.polycircle import root_clusters
from test_polycircle import _expand_reference

TARGET = 1.0 - math.log(2.0)


def _objective(angles):
    return objective_and_gradient(angles)[0]


def _drive(gen, fg):
    """Run one search generator alone: answer each point it yields with
    ``fg`` at that point, and return what the generator returns."""
    try:
        point = next(gen)
        while True:
            point = gen.send(fg(point))
    except StopIteration as done:
        return done.value


def _objective_and_gradient_reference(angles):
    # The value and gradient of one angle set, computed without a stack
    # axis and without the package's helpers, in the objective's order;
    # each row of a stack must reproduce its bits.
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    n = angles.size
    roots = np.exp(1j * angles)
    coeffs = _expand_reference(roots, 1.0)
    norm = float((np.abs(coeffs) ** 2).sum())
    # P_m = sum_tau tau^m, m = 1..n
    sums = (roots[:, None] ** np.arange(1, n + 1)).sum(axis=0)
    # c_m = sum_j a_{j+m} conj(a_j), m = 1..n
    padded = np.concatenate([coeffs, np.zeros(n, dtype=complex)])
    lags = np.array([(padded[m : m + n + 1] * np.conj(coeffs)).sum()
                     for m in range(1, n + 1)])
    entropy = float(-2.0 * (sums * (lags / np.arange(1, n + 1))).sum().real)
    value = entropy / norm - math.log(norm)
    quot = np.empty((n, n), dtype=complex)
    quot[:, n - 1] = coeffs[n]
    for k in range(n - 1, 0, -1):
        quot[:, k - 1] = coeffs[k] + roots * quot[:, k]
    lam = -np.conj(sums) / np.arange(1, n + 1)
    lam_full = np.concatenate([np.conj(lam[::-1]), [0.0], lam])
    conj_a = np.conj(coeffs)
    pairs = lam_full[np.arange(n, 0, -1)[:, None] + np.arange(n + 1)]
    g = (pairs * conj_a).sum(axis=1)
    rot = -1j * roots
    d_norm = 2.0 * (rot * (quot * conj_a[:n]).sum(axis=1)).real
    d_entropy = 2.0 * (rot * (quot * g).sum(axis=1)).real + d_norm
    grad = d_entropy / norm - (entropy / norm**2 + 1.0 / norm) * d_norm
    return value, grad


def _collided_angle_sets(n, rng):
    """Random angles, and the same with an exact double and triple zero."""
    angles = rng.uniform(0, 2 * np.pi, n)
    out = [angles]
    if n >= 2:
        double = angles.copy()
        double[1] = double[0]
        out.append(double)
    if n >= 3:
        triple = angles.copy()
        triple[1] = triple[2] = triple[0]
        out.append(triple)
    return out


def test_objective_equally_spaced_is_extremal():
    for n in (2, 4, 9):
        angles = 2 * np.pi * np.arange(n) / n + 0.3
        assert abs(_objective(angles) - (1.0 - math.log(2.0))) < 1e-12


def test_objective_degree_one():
    assert abs(_objective([1.234]) - (1.0 - math.log(2.0))) < 1e-14


def test_objective_double_angle():
    # (z - e^{i theta})^2 has E = 14, N = 6 => E(phat) = 14/6 - log 6
    val = _objective([0.7, 0.7])
    assert abs(val - (14.0 / 6.0 - math.log(6.0))) < 1e-12
    assert val > 1.0 - math.log(2.0)


def test_objective_gauge_invariances():
    rng = instance_rng(50)
    angles = rng.uniform(0, 2 * np.pi, 6)
    base = _objective(angles)
    assert abs(_objective(angles + 1.234) - base) < 1e-10
    # scale invariance of the underlying normalized entropy
    p = ce.from_angles(angles, 1.0)
    scaled = ce.from_angles(angles, 17.3 * np.exp(0.2j))
    for poly in (p, scaled):
        rf = ce.ratio_functional(ce.normalize_self_inversive(poly))
        norm = ce.parseval_norm(poly)
        assert abs(rf.entropy_integral / norm - math.log(norm) - base) < 1e-10


def test_objective_agrees_with_ratio_functional():
    rng = instance_rng(51)
    angles = rng.uniform(0, 2 * np.pi, 5)
    p = ce.normalize_self_inversive(ce.from_angles(angles))
    rf = ce.ratio_functional(p)
    norm = ce.parseval_norm(p)
    assert abs(_objective(angles) - (rf.entropy_integral / norm - math.log(norm))) < 1e-11


def test_gradient_matches_central_differences():
    rng = instance_rng(53)
    h = 1e-6
    for n in range(2, 13):
        for angles in _collided_angle_sets(n, rng):
            _, grad = objective_and_gradient(angles)
            fd = np.empty(n)
            for j in range(n):
                step = np.zeros(n)
                step[j] = h
                fd[j] = (_objective(angles + step) - _objective(angles - step)) / (2 * h)
            # Where every zero coalesces (n = 2 double, n = 3 triple) the
            # gradient vanishes by rotation invariance; the floor covers the
            # rounding of the differences there.
            scale = np.abs(grad).max()
            assert np.abs(fd - grad).max() <= 1e-6 * scale + 1e-9, (n, angles)


def test_objective_and_gradient_value_is_objective_bit_for_bit():
    # One angle set is the stack of one: a float and an n-vector, with the
    # bits of the stack's row.
    rng = instance_rng(54)
    for n in (1, 2, 5, 8, 12):
        for angles in _collided_angle_sets(n, rng):
            value, grad = objective_and_gradient(angles)
            values, grads = objective_and_gradient(angles[None])
            assert type(value) is float and grad.shape == (n,)
            assert values.shape == (1,) and grads.shape == (1, n)
            assert np.float64(value).tobytes() == values.tobytes()
            assert grad.tobytes() == grads[0].tobytes()


# Angle sets whose norm N has a numpy log that differs from libm's
# math.log(N) in the last bit on an AVX-512 Xeon (numpy 2.4), enough to move
# the objective's value: a row that took numpy's vectorized log would not
# have the bits it has alone.
_LOG_SENSITIVE = {
    5: [["0x1.5838bd365b6dap+2", "0x1.1e7e733594d8dp+1", "0x1.42aa400f660e3p+2",
         "0x1.5f80370c3725ep+1", "0x1.635d737a579acp+2"],
        ["0x1.77159143b1e7bp+1", "0x1.814177a4c1e6dp+2", "0x1.dbeb427b4384ap-2",
         "0x1.88faec1ac28b1p+2", "0x1.1a383e80ef737p+1"]],
    8: [["0x1.9405d16552ba2p+1", "0x1.1a2affa9fedb3p+2", "0x1.b884f319c7b66p-2",
         "0x1.2b17c20d83750p-2", "0x1.f7f441f2a905dp+1", "0x1.afe62fdf97ca7p+1",
         "0x1.4b28638d66cd2p+1", "0x1.070afdf0fcf94p+2"],
        ["0x1.71057981d2674p+2", "0x1.32da2be2a0eb6p+1", "0x1.ee66e68eedc92p+1",
         "0x1.ec2cb435a0b95p+1", "0x1.c9ae489aafd89p+1", "0x1.2c7a0ba897592p-1",
         "0x1.6b8879ab099b1p+2", "0x1.8316d9b3f7506p+2"]],
    12: [["0x1.782dcf4ae8dc0p+2", "0x1.d0df713a5f9bep+1", "0x1.3f7c0ad7df019p+2",
          "0x1.085a1a0c2b294p+0", "0x1.9058b5a54795ap+2", "0x1.56e1e6f843b01p+2",
          "0x1.4435d2a441da4p+2", "0x1.8d06665cea434p+1", "0x1.5290fdd969453p+1",
          "0x1.e8ff12f886402p-1", "0x1.8778a3c0f4fe3p+2", "0x1.2fc1fa3d2d3d1p+1"],
         ["0x1.350822181f870p+1", "0x1.2de9bac93ac2cp+2", "0x1.4efa5cd3ada87p+2",
          "0x1.089f8e103a886p+1", "0x1.ad00d65a5c581p+1", "0x1.04de1041cb5e6p+2",
          "0x1.09774899d5d0cp+2", "0x1.8d2dd83b64141p+2", "0x1.39732d6556f30p+2",
          "0x1.b829b2371cdeap-1", "0x1.539fc546c08fep+2", "0x1.0b1a145a4b5fep+1"]],
}


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 32])
def test_stacked_objective_matches_the_one_set_reference_bit_for_bit(n):
    rng = instance_rng(55, n)
    sensitive = [[float.fromhex(x) for x in row] for row in _LOG_SENSITIVE.get(n, [])]
    for rows in (1, 8, 100):
        angles = rng.uniform(0, 2 * np.pi, (rows, n))
        # collided rows among the random ones: a double and a triple zero
        for i, angle_set in enumerate(_collided_angle_sets(n, rng)[1:]):
            angles[(3 * i + 1) % rows] = angle_set
        # and, last, the sets where numpy's log differs from libm's
        if sensitive:
            angles[-len(sensitive):] = sensitive[-rows:]
        values, grads = objective_and_gradient(angles)
        assert values.shape == (rows,) and grads.shape == (rows, n)
        for i in range(rows):
            value, grad = _objective_and_gradient_reference(angles[i])
            assert np.float64(value).tobytes() == values[i].tobytes(), (n, rows, i)
            assert grad.tobytes() == grads[i].tobytes(), (n, rows, i)


@pytest.mark.parametrize("n, restarts, seed", [(8, 8, 2), (8, 32, 0), (5, 4, 7),
                                               (12, 8, 3)])
def test_lockstep_search_matches_starts_run_one_at_a_time(n, restarts, seed):
    # Each start driven alone, one angle set per call, and the result put
    # together as the search defines it: the first least endpoint of all
    # starts and descents, and every start's trace entry.
    outcomes, seen = [], []

    def fg(x):
        value, grad = objective_and_gradient(np.concatenate([[0.0], x]))
        seen.append(value)
        return value, grad[1:]

    for x0 in _starts(n, restarts, np.random.default_rng(seed)):
        before = len(seen)
        endpoints, pattern = _drive(_start(x0), fg)
        outcomes.append((endpoints, pattern, len(seen) - before))
    best, trace = None, []
    for k, (endpoints, pattern, evaluations) in enumerate(outcomes):
        for res in endpoints:
            if best is None or res[1] < best[1]:
                best = res
        grad_norm = float(np.abs(endpoints[-1][2]).max())
        trace.append({"restart": k, "fun": float(endpoints[-1][1]),
                      "grad_norm": grad_norm,
                      "converged": grad_norm <= extremal.GRAD_TOL,
                      "evaluations": evaluations, "splits": len(endpoints) - 1,
                      "pattern": pattern})
    angles = np.mod(np.concatenate([[0.0], best[0]]), 2 * np.pi)
    want = {"n": n, "angles": angles.tolist(), "achieved": best[1],
            "gap": best[1] - TARGET,
            "angle_gap_deviation": angle_gap_deviation(angles),
            "converged": float(np.abs(best[2]).max()) <= extremal.GRAD_TOL,
            "restarts": restarts, "evaluations": len(seen),
            "min_objective_seen": min(seen), "trace": trace}
    assert ce.minimize(n, restarts, seed).to_dict() == want


def _clusters_at(angles):
    return root_clusters(np.exp(1j * angles), extremal.CLUSTER_TOL)


def test_split_clusters_separates_a_double_zero():
    angles = np.array([0.5, 1.0, 1.0, 2.5, 4.0])
    split = _split_clusters(_clusters_at(angles), angles.size)
    assert len(root_clusters(np.exp(1j * split), extremal.CLUSTER_TOL)) == 5
    # The extra zero goes to the midpoint of the largest gap, 4.0 -> 0.5 + 2 pi,
    # and the rotation by -0.5 fixes the gauge: the first angle is exactly 0.
    mid = (4.0 + 0.5 + 2 * np.pi) / 2
    assert split[0] == 0.0
    assert np.allclose(split, np.array([0.5, 1.0, 2.5, 4.0, mid]) - 0.5, atol=1e-15)


def test_split_clusters_leaves_simple_zeros_alone():
    for angles in (np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.3])):
        assert _split_clusters(_clusters_at(angles), angles.size) is None


def test_each_endpoint_that_may_split_is_clustered_once(monkeypatch):
    # The first endpoint's pattern and its split share one clustering; an
    # endpoint after the last allowed split is not clustered at all.
    calls = []

    def clusters_spy(roots, tol):
        calls.append(tol)
        return root_clusters(roots, tol)

    monkeypatch.setattr(extremal, "root_clusters", clusters_spy)
    res = ce.minimize(8, restarts=8, seed=2)
    splits = [entry["splits"] for entry in res.trace]
    assert any(splits)
    assert calls == [extremal.CLUSTER_TOL] * sum(
        min(k + 1, extremal.MAX_SPLITS) for k in splits)


def test_min_objective_seen_is_the_minimum_of_every_value(monkeypatch):
    seen = []
    real = extremal.objective_and_gradient

    def spy(angles):
        values, grads = real(angles)
        seen.extend(np.atleast_1d(values).tolist())
        return values, grads

    monkeypatch.setattr(extremal, "objective_and_gradient", spy)
    res = ce.minimize(6, restarts=4, seed=11)
    assert res.evaluations == len(seen)
    assert res.min_objective_seen == min(seen)
    assert sum(entry["evaluations"] for entry in res.trace) == len(seen)


def test_minimize_trace_census():
    res = ce.minimize(8, restarts=6, seed=2)
    assert res.converged and res.gap < 1e-6
    assert res.restarts == len(res.trace) == 6
    for k, entry in enumerate(res.trace):
        assert set(entry) == {"restart", "fun", "grad_norm", "converged",
                              "evaluations", "splits", "pattern"}
        assert entry["restart"] == k
        assert entry["converged"] == (entry["grad_norm"] <= extremal.GRAD_TOL)
        assert 0 <= entry["splits"] <= extremal.MAX_SPLITS
        assert sum(entry["pattern"]) == 8
        assert entry["pattern"] == sorted(entry["pattern"], reverse=True)
        assert entry["fun"] >= res.achieved


def test_simple_zero_endpoints_are_binomial(monkeypatch):
    # Census of the conjecture that the only local minimum with all zeros
    # simple is the binomial: every descent that ends with simple zeros
    # ends at 1 - log 2.
    endpoints = []
    real = extremal._descend

    def spy(x0):
        x, f, g = yield from real(x0)
        endpoints.append(np.concatenate([[0.0], x]))
        return x, f, g

    monkeypatch.setattr(extremal, "_descend", spy)
    for n in range(3, 11):
        ce.minimize(n, restarts=12, seed=300 + n)
        simple = [angles for angles in endpoints
                  if len(root_clusters(np.exp(1j * angles), extremal.CLUSTER_TOL)) == n]
        assert len(endpoints) >= 12 and simple
        for angles in simple:
            assert _objective(angles) - TARGET <= 1e-6, (n, angles)
        endpoints.clear()


def _quadratic(n, seed):
    """0.5 (x - c)^T A (x - c) with A symmetric, eigenvalues in [1, 10]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.linspace(1.0, 10.0, n)) @ q.T
    a = (a + a.T) / 2
    c = rng.standard_normal(n)

    def fg(x):
        grad = (a * (x - c)).sum(axis=1)
        return 0.5 * float(((x - c) * grad).sum()), grad

    return fg, c


def _rosenbrock(x):
    u, v = x
    value = (1.0 - u) ** 2 + 100.0 * (v - u * u) ** 2
    grad = np.array([-2.0 * (1.0 - u) - 400.0 * u * (v - u * u),
                     200.0 * (v - u * u)])
    return value, grad


def test_descend_reaches_the_minimizer_of_a_convex_quadratic():
    fg, c = _quadratic(7, 60)
    x, f, g = _drive(_descend(np.zeros(7)), fg)
    assert np.abs(x - c).max() <= 1e-10
    assert f == fg(x)[0] and np.array_equal(g, fg(x)[1])


def test_descend_reaches_the_rosenbrock_minimum():
    x, f, g = _drive(_descend(np.array([-1.2, 1.0])), _rosenbrock)
    assert np.abs(x - 1.0).max() <= 1e-6
    assert f <= 1e-12


def test_line_search_meets_the_strong_wolfe_conditions():
    calls = []

    def counted(fg):
        def wrapped(x):
            calls.append(x)
            return fg(x)
        return wrapped

    # On a quadratic the cubic through a bracket's ends is exact: a first
    # trial past the minimizer is followed by the minimizer itself.
    x, f, g = _drive(extremal._line_search(np.zeros(1), np.ones(1), 1.0, -2.0, 4.0),
                     counted(lambda x: ((x[0] - 1.0) ** 2, 2.0 * (x - 1.0))))
    assert x[0] == 1.0 and f == 0.0 and len(calls) == 2
    # From first trials far too short or too long, along random descent
    # directions, the accepted step has sufficient decrease and strong
    # curvature.
    rng = np.random.default_rng(61)
    x0 = np.array([-1.2, 1.0])
    f0, g0 = _rosenbrock(x0)
    for _ in range(20):
        p = -g0 / np.abs(g0).max() + 0.3 * rng.standard_normal(2)
        d0 = float((g0 * p).sum())
        if d0 >= 0:
            continue
        for first in (1e-6, 10.0):
            calls.clear()
            x, f, g = _drive(extremal._line_search(x0, p, f0, d0, first),
                             counted(_rosenbrock))
            step = (x - x0)[0] / p[0]
            assert f <= f0 + extremal.C1 * step * d0
            assert abs(float((g * p).sum())) <= -extremal.C2 * d0
            assert len(calls) <= extremal.LINE_SEARCH_EVALS


def test_descend_stops_where_no_decrease_is_possible():
    # A constant: the gradient vanishes, so the start is returned.
    x0 = np.array([0.3, -2.0])
    x, f, _ = _drive(_descend(x0), lambda x: (1.0, np.zeros(2)))
    assert np.array_equal(x, x0) and f == 1.0
    # A gradient above the tolerance, but the value moves by 1e-8 on 1e9,
    # below its rounding: no step shows a decrease, and the descent ends at
    # the start without raising.
    calls = []

    def blocked(x):
        calls.append(x)
        return 1e9 + 1e-8 * float((x * x).sum()), 2e-8 * x

    x, f, _ = _drive(_descend(x0), blocked)
    assert f <= blocked(x0)[0]
    assert np.array_equal(x, x0)
    assert len(calls) <= 3


def test_search_exits_at_its_limits():
    # The cubic's minimizer is the square root of a negative number, or
    # divides by a zero-length bracket: the bracket's midpoint instead.
    assert extremal._cubic_step((0.0, 0.0, 5.0), (1.0, 10 / 3, 5.0)) == 0.5
    assert extremal._cubic_step((1.0, 0.0, -1.0), (1.0, 0.0, -1.0)) == 1.0
    # f(x) = -x decreases without end: the steps double through all the
    # trials, and the last, 2^19, is the best.
    calls = []

    def falling(x):
        calls.append(x)
        return -float(x[0]), -np.ones(1)

    x, f, _ = _drive(extremal._line_search(np.zeros(1), np.ones(1), 0.0, -1.0, 1.0),
                     falling)
    assert x[0] == 524288.0 and f == -524288.0
    assert len(calls) == extremal.LINE_SEARCH_EVALS
    # A NaN gradient gives no descent direction: one evaluation, at the start.
    calls.clear()
    x0 = np.array([0.5, 1.5])
    x, f, _ = _drive(_descend(x0), lambda x: calls.append(x) or (1.0, np.full(2, np.nan)))
    assert np.array_equal(x, x0) and f == 1.0 and len(calls) == 1


def test_descend_evaluates_each_point_once():
    calls = []

    def counted(x):
        calls.append(tuple(x))
        return _rosenbrock(x)

    _drive(_descend(np.array([-1.2, 1.0])), counted)
    assert len(set(calls)) == len(calls) > 1


def test_search_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ce.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, circentropy as ce; ce.minimize(3, restarts=1); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_search_rounds_call_no_numpy_convenience_wrappers(monkeypatch):
    # At n = 8 a round costs its count of Python-level numpy calls, so the
    # round path calls the ufuncs and indexing these wrappers stand for.
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy convenience wrapper on the round path")

    for name in ("insert", "hstack", "take_along_axis", "atleast_2d"):
        monkeypatch.setattr(np, name, refuse)
    res = ce.minimize(8, restarts=2, seed=0)
    assert res.evaluations > 0


def test_minimize_degree_one_immediate():
    res = ce.minimize(1, restarts=1, seed=0)
    assert res.converged
    assert abs(res.achieved - (1.0 - math.log(2.0))) < 1e-12
    assert res.gap < 1e-12


def test_minimize_recovers_binomial_family():
    res = ce.minimize(2, restarts=8, seed=0)
    assert res.gap < 1e-6
    assert res.angle_gap_deviation < 1e-4
    assert res.min_objective_seen >= (1.0 - math.log(2.0)) - 1e-9
    res = ce.minimize(4, restarts=8, seed=1)
    assert res.gap < 1e-6
    assert res.angle_gap_deviation < 1e-4


def test_minimize_live_lower_bound_holds():
    res = ce.minimize(5, restarts=6, seed=3)
    assert res.min_objective_seen >= (1.0 - math.log(2.0)) - 1e-9
    assert res.evaluations > 0
    assert len(res.trace) == 6


def test_minimize_validates_arguments(monkeypatch):
    # Refused before the first start is built, whatever the size.
    def never(x0):
        raise AssertionError("a start was built")

    monkeypatch.setattr(extremal, "_start", never)
    with pytest.raises(ValueError):
        ce.minimize(0)
    with pytest.raises(ValueError):
        ce.minimize(3, restarts=0)
    with pytest.raises(ValueError, match=f"restarts={extremal.MAX_RESTARTS + 1}"):
        ce.minimize(3, restarts=extremal.MAX_RESTARTS + 1)
    with pytest.raises(ce.IllConditioned, match=f"got degree {MAX_SERIES_DEGREE + 1}$"):
        ce.minimize(MAX_SERIES_DEGREE + 1)


def test_angle_gap_deviation():
    n = 8
    perfect = 2 * np.pi * np.arange(n) / n
    assert angle_gap_deviation(perfect) < 1e-15
    bumped = perfect.copy()
    bumped[3] += 1e-3
    assert abs(angle_gap_deviation(bumped) - 1e-3) < 1e-12


def test_coalescence_double_zero_limits():
    p = ce.from_roots([1.0, 1.0])
    table = ce.coalescence_experiment(p, [2.0**-k for k in range(1, 21)])
    assert abs(table.limits["entropy"] - 14.0) < 1e-10
    assert abs(table.limits["jensen"] - 7.0) < 1e-10
    assert abs(table.limits["polar"] - 7.0) < 1e-10
    assert table.final_max_deviation < 1e-4
    devs = [row.dev_entropy for row in table.rows]
    assert devs[-1] < devs[0]


def test_coalescence_triple_zero_converges():
    p = ce.normalize_self_inversive(ce.from_roots([1j, 1j, 1j]))
    table = ce.coalescence_experiment(p, [2.0**-k for k in range(1, 21)])
    assert table.final_max_deviation < 1e-4


def test_coalescence_flat_for_simple_zeros():
    p = random_circle_poly(5, instance_rng(52, 5))
    table = ce.coalescence_experiment(p, [1e-4, 1e-5, 1e-6])
    for row in table.rows:
        assert row.dev_entropy < 1e-2 * max(1.0, abs(table.limits["entropy"]))
        assert row.dev_entropy < 10 * row.epsilon * ce.parseval_norm(p)


def _coalescence_values_reference(p, schedule):
    # One perturbed copy at a time, as the table was built before it was
    # one stack: entropy, Jensen, polar, gamma and moment-formula values.
    for eps in schedule:
        pe = ce.perturb_roots(p, eps)
        rf = ce.ratio_functional(pe)
        yield (rf.entropy_integral, rf.jensen_integral, rf.value,
               ce.gamma_remainder(pe),
               ce.polar_term_via_moments(ce.moments(ce.polar_factor(pe))))


@pytest.mark.parametrize("angles", [
    [0.3, 0.3, 2.0, 5.0],
    [1.0, 1.0, 1.0, 4.0, 4.0],
    # n = 64: blocks of 16 rows, so the 20 rows of the schedule take two
    list(np.repeat(instance_rng(53).uniform(0, 2 * np.pi, 32), 2)),
])
def test_coalescence_rows_match_one_copy_at_a_time(angles):
    p = ce.from_angles(angles)
    schedule = [2.0**-k for k in range(1, 21)]
    table = ce.coalescence_experiment(p, schedule)
    for row, want in zip(table.rows, _coalescence_values_reference(p, schedule),
                         strict=True):
        got = (row.entropy, row.jensen, row.polar, row.gamma, row.moment_polar)
        assert [v.hex() for v in got] == [v.hex() for v in want], row.epsilon


def test_coalescence_schedule_validation():
    p = ce.from_roots([1.0, 1.0])
    with pytest.raises(ValueError):
        ce.coalescence_experiment(p, [])
    with pytest.raises(ValueError):
        ce.coalescence_experiment(p, [1e-2, 1e-1])
    with pytest.raises(ValueError):
        ce.coalescence_experiment(p, [1e-2, -1e-3])
