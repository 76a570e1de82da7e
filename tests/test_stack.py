"""Stacked kernels against per-instance oracles, and stack invariance.

Each kernel that runs over a stack (one row per polynomial) is compared with
an inline per-instance loop through np.vdot, np.dot or np.convolve, the way
the values were computed one polynomial at a time.  The sums run in another
order, so they agree to rounding, within one tolerance relative to N.  A
report must not depend on the stack that computed it, and neither must a
constructed instance: those hold bit for bit.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

import circentropy as ce
from circentropy.blaschke_moments import series_divide
from circentropy.corpus import (
    _draw_angles,
    instance_rng,
    random_circle_poly,
    random_circle_stack,
)
from circentropy.extremal import objective_and_gradient
from circentropy.log_integrals import _lags
from circentropy.polycircle import (
    _STACK_ENTRIES,
    TAU_UNIMOD,
    _leja_order,
    expand_from_roots,
    poly_degree,
)

ORACLE_TOL = 1e-13          # x N: stacked kernel against its per-instance loop
DEGREES = (1, 2, 3, 20, 128)
COUNT = 6                   # instances per stack; the first has a multiple zero


def _stack(n):
    polys = [
        ce.normalize_self_inversive(
            random_circle_poly(n, instance_rng(40, n, i), multiple=(n >= 2 and i == 0))
        )
        for i in range(COUNT)
    ]
    return polys, ce.stack(polys)


def _divide_by_dot(num, den, order):
    out = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        acc = num[k] if k < num.size else 0.0
        m = min(k, den.size - 1)
        if m >= 1:
            acc = acc - np.dot(den[1 : m + 1], out[k - m : k][::-1])
        out[k] = acc / den[0]
    return out


def test_autocorrelation_matches_vdot_per_instance():
    for n in DEGREES:
        polys, p = _stack(n)
        c = _lags(p.coefficients, n)
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            a = poly.coefficients
            want = np.array([np.vdot(a[: n + 1 - k], a[k:]) for k in range(n + 1)])
            assert np.abs(c[i] - want).max() <= ORACLE_TOL * norm[i], (n, i)


def test_root_pairing_matches_matrix_product_per_instance():
    for n in DEGREES:
        polys, p = _stack(n)
        got = ce.ratio_functional(p).entropy_integral
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            b = poly.coefficients
            cm = np.array([np.vdot(b[: n + 1 - k], b[k:]) for k in range(1, n + 1)])
            m = np.arange(1, n + 1)
            roots = poly.roots / np.abs(poly.roots)
            want = (norm[i] * 2.0 * np.log(abs(b[n]))
                    - 2.0 * ((roots[:, None] ** m) @ (cm / m)).real.sum())
            assert abs(got[i] - want) <= ORACLE_TOL * norm[i], (n, i)


def test_log_series_pairing_matches_vdot_per_instance():
    # ratio_functional's value is -int |p|^2 log|h|^2 dm.
    for n in DEGREES:
        polys, p = _stack(n)
        got = -ce.ratio_functional(p).value
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            a, h = poly.coefficients, poly.h_series
            cm = np.array([np.vdot(a[: n + 1 - k], a[k:]) for k in range(1, n + 1)])
            dlog = _divide_by_dot(h[1:] * np.arange(1, n + 1), h, n - 1)
            want = 2.0 * np.vdot(dlog / np.arange(1, n + 1), cm).real
            assert abs(got[i] - want) <= ORACLE_TOL * norm[i], (n, i)


def test_series_divide_matches_dot_recurrence_per_instance():
    # q = h p, so q / h gives p back through degree n.
    for n in DEGREES:
        polys, p = _stack(n)
        q = ce.polar_factor(p).q
        got = series_divide(q, p.h_series, n)
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            want = _divide_by_dot(q[i], poly.h_series, n)
            assert np.abs(got[i] - want).max() <= ORACLE_TOL * norm[i], (n, i)
            assert np.abs(got[i] - poly.coefficients).max() <= 1e-10 * norm[i]


def test_moments_match_convolution_per_instance():
    for n in DEGREES:
        polys, p = _stack(n)
        seq = ce.moments(ce.polar_factor(p))
        norm = ce.parseval_norm(p)
        for i, poly in enumerate(polys):
            q = ce.polar_factor(poly).q
            r = _divide_by_dot(np.ones(1, dtype=complex), poly.h_series, n - 1)
            r[0] = 0.0
            want = [np.vdot(q, q)]
            f = q
            for _ in range(1, n):
                f = np.convolve(r, f)[:n]
                want.append(np.vdot(q, f))
            assert np.abs(seq.values[i] - want).max() <= ORACLE_TOL * norm[i], (n, i)


def test_a_report_does_not_depend_on_its_stack():
    # Several degrees, one stack each, multiple zeros, a stack of one, and
    # at n = 128 more rows than one verification block holds.
    by_degree = {}
    for n in (1, 2, 3, 7, 20, 128):
        count = 2 + _STACK_ENTRIES // (n * n) if n == 128 else 5
        by_degree[n] = [random_circle_poly(n, instance_rng(41, n, i),
                                           multiple=(n >= 2 and i % 2 == 0))
                        for i in range(count)]
    by_degree[2].append(ce.from_roots([1.0, 1.0]))
    polys = [poly for group in by_degree.values() for poly in group]
    stacked = [rep for group in by_degree.values()
               for rep in ce.verify_stack(ce.stack(group))]
    assert [rep.degree for rep in stacked] == [poly.degree for poly in polys]
    assert not all(rep.simple_zeros for rep in stacked)
    for poly, rep in zip(polys, stacked):
        alone = json.dumps(ce.verify_main(poly).to_dict())
        assert json.dumps(rep.to_dict()) == alone, poly.degree
    # a stack's rows in another order give the same reports
    again = [rep for group in by_degree.values()
             for rep in ce.verify_stack(ce.stack(group[::-1]))[::-1]]
    assert [r.to_dict() for r in again] == [r.to_dict() for r in stacked]


def test_poly_degree_of_a_stack_is_its_highest_row_degree():
    cases = [
        ([1.0, 2.0, 0.0], 1),
        ([0.0, 0.0], -1),
        ([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]], 1),
        ([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], 2),
        ([[1.0, 1.0], [0.0, 0.0]], -1),
        ([[0.0, 0.0, 0.0]], -1),
        ([[0.0, 3.0]], 1),
    ]
    for coeffs, want in cases:
        assert poly_degree(coeffs) == want, coeffs
    rng = np.random.default_rng(42)
    for _ in range(50):
        rows = rng.standard_normal((3, 6)) * (rng.random((3, 6)) < 0.4)
        degrees = [poly_degree(row) for row in rows]
        want = -1 if min(degrees) < 0 else max(degrees)
        assert poly_degree(rows) == want, rows


def test_stack_input_checks():
    with pytest.raises(ValueError, match="one degree"):
        ce.stack([ce.from_roots([1.0]), ce.from_roots([1.0, -1.0])])
    with pytest.raises(ce.ZeroConstantTerm):
        series_divide(1.0, [[1.0, 1.0], [0.0, 1.0]], 3)


def _same_bits(p, q):
    return (p.degree == q.degree
            and p.coefficients.tobytes() == q.coefficients.tobytes()
            and p.roots.tobytes() == q.roots.tobytes()
            and complex(p.leading) == complex(q.leading))


def _one_at_a_time(n, rng, multiple, unit_norm):
    # The construction of one polynomial from 1-d arrays, draw for draw.
    angles = _draw_angles(n, rng, multiple)
    leading = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
    p = ce.normalize_self_inversive(ce.from_angles(angles, leading))
    if unit_norm:
        p = p.scaled(1.0 / np.sqrt(ce.parseval_norm(p)))
    return p


@pytest.mark.parametrize("unit_norm", [False, True])
def test_stacked_construction_matches_each_instance_bit_for_bit(unit_norm):
    for seed in (40, 41):
        for n in DEGREES:
            flags = [n >= 2 and i % 3 == 0 for i in range(COUNT)]
            rngs = [instance_rng(seed, n, i) for i in range(COUNT)]
            p = random_circle_stack(n, rngs, multiple=flags, unit_norm=unit_norm)
            assert p.coefficients.shape == (COUNT, n + 1)
            assert p.roots.shape == (COUNT, n) and p.leading.shape == (COUNT,)
            for i, flag in enumerate(flags):
                alone = random_circle_poly(n, instance_rng(seed, n, i),
                                           multiple=flag, unit_norm=unit_norm)
                assert alone.coefficients.shape == (n + 1,)
                assert _same_bits(p[i], alone), (seed, n, i)
                ref = _one_at_a_time(n, instance_rng(seed, n, i), flag, unit_norm)
                assert _same_bits(p[i], ref), (seed, n, i)


def test_stacked_construction_memory_is_bounded_by_blocks():
    # The Leja order of a stack runs in blocks of _STACK_ENTRIES / n^2 rows:
    # at n = 128, 4 rows and about 2 MiB of log-distances per block, where
    # the whole (40, 128, 128) table would take about 20 MiB.  The rows are
    # the ones built one at a time, past the block edges too.
    n, count = 128, 40
    rngs = [instance_rng(45, n, i) for i in range(count)]
    tracemalloc.start()
    try:
        p = random_circle_stack(n, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    for i in range(count):
        assert _same_bits(p[i], random_circle_poly(n, instance_rng(45, n, i))), i


def test_stacked_objective_memory_is_bounded_by_blocks():
    # The search's objective builds (rows, n, n) tables.  At n = 128 a block
    # holds 4 rows; all 40 rows at once took a 31 MiB peak.  Every row keeps
    # the bits it has alone, past the block edges too.
    angles = instance_rng(47, 128).uniform(0, 2 * np.pi, (40, 128))
    tracemalloc.start()
    try:
        values, grads = objective_and_gradient(angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak
    for row, value, grad in zip(angles, values, grads):
        alone, alone_grad = objective_and_gradient(row)
        assert value.tobytes() == np.float64(alone).tobytes()
        assert grad.tobytes() == alone_grad.tobytes()


@pytest.mark.parametrize("n", [256, 257, 300])
def test_construction_above_one_row_per_block(n):
    # From n = 256 on, a Leja block holds one row, and above it one row is
    # over the block limit: a stack is ordered row by row, a one-row block
    # as it is.  Each row gets the order it gets alone.
    rng = instance_rng(46, n)
    roots = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, n)))
    roots[1, 5:9] = roots[1, 4]
    order = _leja_order(roots)
    for i in range(3):
        alone = _leja_order(roots[i][None])[0]
        assert sorted(alone) == list(range(n))
        assert order[i].tobytes() == alone.tobytes(), i
    p = random_circle_stack(n, [instance_rng(46, n, i) for i in range(2)])
    for i in range(2):
        ref = _one_at_a_time(n, instance_rng(46, n, i), False, False)
        assert _same_bits(p[i], ref), i
        assert _same_bits(random_circle_poly(n, instance_rng(46, n, i)), ref), i


def test_stacked_expansion_matches_one_row_at_a_time():
    rng = instance_rng(42)
    for m in (1, 2, 3, 5, 20, 128):
        roots = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, m)))
        # an all-equal row, whose Leja order falls back to index order once
        # every distance sum is -inf, next to rows of distinct roots
        roots[2] = roots[2, 0]
        leading = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = expand_from_roots(roots, leading)
        assert got.shape == (4, m + 1)
        for i in range(4):
            want = expand_from_roots(roots[i], leading[i])
            assert got[i].tobytes() == want.tobytes(), (m, i)
        stacked = ce.from_roots(roots, leading)
        for i in range(4):
            assert _same_bits(stacked[i], ce.from_roots(roots[i], leading[i])), (m, i)


@pytest.mark.parametrize("bad", [1.0 + 10 * TAU_UNIMOD, np.nan, np.inf])
def test_stacked_construction_checks_every_row(bad):
    roots = np.exp(1j * instance_rng(43).uniform(0, 2 * np.pi, (5, 6)))
    ce.from_roots(roots, np.ones(5))
    roots[3, 4] *= bad
    with pytest.raises(ce.NonUnimodularRoot):
        ce.from_roots(roots, np.ones(5))
    angles = np.angle(roots[[0, 1, 2, 4]])
    angles[2, 1] = np.nan
    with pytest.raises(ce.NonUnimodularRoot):
        ce.from_angles(angles, np.ones(4))
    for leading in ([1.0, 0.0], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ce.ZeroLeading):
            ce.from_roots(np.exp(1j * np.ones((2, 3))), leading)


def test_verify_stack_takes_a_stack_as_it_is():
    # More rows than one verification block at n = 128: the stack is cut in
    # blocks, and every report equals the one verify_main gives its row.
    for n in (3, 128):
        count = 2 + _STACK_ENTRIES // (n * n) if n == 128 else 7
        p = random_circle_stack(n, [instance_rng(44, n, i) for i in range(count)],
                                multiple=[i % 2 == 0 for i in range(count)])
        reports = ce.verify_stack(p)
        listed = [ce.verify_main(p[i]) for i in range(count)]
        assert len(reports) == count
        assert [json.dumps(r.to_dict()) for r in reports] == [
            json.dumps(r.to_dict()) for r in listed]
        assert ce.verify_stack(p[:0]) == []


# The shared division by h and the moments, against their recurrences on
# one row in 1-d numpy, bit for bit.  The references call no
# package kernel (series_divide, _apply, moments, ratio_functional): each
# sum is one add.reduce over the products in the order the kernels form
# them, so they see a changed product, order or rounding in the kernels.
SHARED_DIVISION_DEGREES = (1, 2, 3, 7, 20, 128)


def _shared_division_stacks():
    # Per degree: a stack whose even rows have multiple zeros, a stack of
    # one, and one polynomial without an instance axis.
    for n in SHARED_DIVISION_DEGREES:
        polys = [ce.normalize_self_inversive(
                     random_circle_poly(n, instance_rng(48, n, i),
                                        multiple=(n >= 2 and i % 2 == 0)))
                 for i in range(3 if n == 128 else 5)]
        yield polys, ce.stack(polys)
        yield polys[:1], ce.stack(polys[:1])
        yield polys[:1], polys[0]


def _divide_reference(num, h, order):
    # out_k = (num_k - (out_0 h_k + ... + out_{k-1} h_1)) / h_0, one row.
    out = np.zeros(order + 1, dtype=complex)
    out[: min(num.size, order + 1)] = num[: order + 1]
    for k in range(order + 1):
        acc = out[k]
        if k:
            acc = acc - np.add.reduce(out[:k] * h[k:0:-1])
        out[k] = acc / h[0]
    return out


def _h_reference(roots):
    # h_k = (1/n) sum_tau conj(tau)^k, h_0 = 1, from the given roots.
    n = roots.size
    h = np.empty(n + 1, dtype=complex)
    h[0] = n
    h[1:] = np.add.reduce(np.conj(roots)[:, None] ** np.arange(1, n + 1), axis=0)
    return h / n


def _moments_reference(a, roots):
    # M_k = <r^k q, q> with r = 1/h - 1: each entry of r^k q is one row of
    # the Toeplitz matrix of r times r^{k-1} q, each M_k its own reduction.
    n = roots.size
    h = _h_reference(roots)
    r = _divide_reference(np.ones(1, dtype=complex), h, n - 1)
    r[0] = 0.0
    q = ((n - np.arange(n, dtype=float)) / n) * a[:n]
    rows = [np.concatenate((r[i::-1], np.zeros(n - 1 - i, dtype=complex)))
            for i in range(n)]
    vals = [complex(np.add.reduce(np.conj(q) * q).real)]
    f = q
    for _ in range(1, n):
        f = np.array([np.add.reduce(row * f) for row in rows])
        vals.append(np.add.reduce(np.conj(q) * f))
    return np.array(vals)


def test_shared_division_matches_the_one_row_recurrence_bit_for_bit():
    for polys, p in _shared_division_stacks():
        n = p.degree
        got = p.h_quotients
        assert got.shape == p.h_series.shape[:-1] + (2, n)
        rows = got.reshape(-1, 2, n)
        for poly, row in zip(polys, rows, strict=True):
            h = _h_reference(poly.roots)
            assert h.tobytes() == poly.h_series.tobytes(), n
            dlog = _divide_reference(h[1:] * np.arange(1, n + 1), h, n - 1)
            inverse = _divide_reference(np.ones(1, dtype=complex), h, n - 1)
            assert row[0].tobytes() == dlog.tobytes(), n
            assert row[1].tobytes() == inverse.tobytes(), n


def test_moments_match_the_one_row_loop_bit_for_bit():
    # Stacks of one row at n = 1 and 2 as well: numpy can round a complex
    # product of one entry differently in another layout.  Pairing every
    # r^k q with q in one (n, rows, n) product did so for M_0 on 34 of 200
    # such rows at n = 1.
    stacks = list(_shared_division_stacks())
    for n in (1, 2):
        for i in range(40):
            poly = random_circle_poly(n, instance_rng(50, n, i))
            stacks.append(([poly], ce.stack([poly])))
    for polys, p in stacks:
        values = ce.moments(ce.polar_factor(p)).values.reshape(-1, p.degree)
        for poly, row in zip(polys, values, strict=True):
            want = _moments_reference(poly.coefficients, poly.roots)
            assert row.tobytes() == want.tobytes(), p.degree


def test_a_verification_block_divides_by_h_once(monkeypatch):
    # The Jensen term and the moments read one division by h, and a block
    # takes every degree from its stack: series_divide runs once, and
    # poly_degree never.  Every module that binds a name gets the spy.
    calls = {"series_divide": 0, "poly_degree": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        for module in [m for key, m in sys.modules.items()
                       if key.startswith("circentropy.") and hasattr(m, name)]:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for n in (1, 7, 20):
        p = random_circle_stack(n, [instance_rng(49, n, i) for i in range(4)],
                                multiple=[n >= 2 and i == 0 for i in range(4)])
        calls.update(series_divide=0, poly_degree=0)
        ce.verify_columns(p)
        assert calls == {"series_divide": 1, "poly_degree": 0}, n
