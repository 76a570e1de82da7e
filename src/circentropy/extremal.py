"""Minimization of the normalized entropy over zero angles on the circle,
and coalescence convergence experiments along root-perturbation schedules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .blaschke_moments import moments
from .entropy import polar_term_via_moments
from .log_integrals import (MAX_SERIES_DEGREE, _circle_root_pairing, _lags, check_degree,
                            ratio_functional)
from .polycircle import (
    CirclePoly,
    expand_from_roots,
    gamma_remainder,
    perturb_roots,
    polar_factor,
    power_sums,
    root_clusters,
    row_blocks,
    stack,
)

# The search's tolerances: a descent endpoint counts as converged when its
# gradient max-norm is at most GRAD_TOL, and zeros within CLUSTER_TOL
# (chordal) of each other form one multiple zero.
GRAD_TOL = 1e-6
CLUSTER_TOL = 1e-6
MAX_SPLITS = 3   # cluster-splitting re-descents per start
# The search's size budget: a degree in the supported range, up to
# MAX_SERIES_DEGREE, and at most MAX_RESTARTS starts, each holding its
# descent until the search ends.
MAX_RESTARTS = 1024

# The descent engine: it stops at a gradient max-norm of DESCENT_GTOL; the
# line search asks for sufficient decrease (C1) and strong curvature (C2),
# and gives up after LINE_SEARCH_EVALS trial points.
DESCENT_GTOL = 1e-9
C1, C2 = 1e-4, 0.9
LINE_SEARCH_EVALS = 20
_EPS = np.finfo(float).eps


def _dot(a, b) -> float:
    # An elementwise product summed along the row, not BLAS, so the bits do
    # not depend on the BLAS thread count.  np.add.reduce is the reduction
    # ndarray.sum wraps, without its Python-level frame.
    return float(np.add.reduce(a * b))


def _cubic_step(lo, hi) -> float:
    """The minimizer of the cubic with the values and slopes at the bracket
    ends ``lo`` and ``hi``, each (step, value, slope) (Nocedal & Wright,
    eq. 3.59), or the bracket's midpoint when that minimizer is not well
    inside the bracket."""
    (a, fa, da), (b, fb, db) = lo, hi
    mid = 0.5 * (a + b)
    try:
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        d2 = math.copysign(math.sqrt(d1 * d1 - da * db), b - a)
        step = b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)
    except (ValueError, ZeroDivisionError):
        return mid
    # False for a NaN too.
    return step if abs(step - mid) <= 0.4 * abs(b - a) else mid


def _line_search(x, p, f0, d0, step):
    """A step along the descent direction p from x meeting the strong Wolfe
    conditions (Nocedal & Wright, Numerical Optimization, Alg. 3.5 and 3.6).

    ``f0`` and ``d0 < 0`` are the value and slope at x, and ``step`` the
    first trial.  Steps double until they bracket an acceptable one; the
    bracket then shrinks to the minimizer of the cubic through its ends'
    values and slopes, or to its midpoint when that minimizer is not
    well inside.  Returns ``(x, f, g)`` at the accepted step.  It gives up
    when the bracket is too short for a decrease along it to show above
    the rounding of f, or after ``LINE_SEARCH_EVALS`` trials, and then
    returns the lowest step with sufficient decrease, or None when there
    is none.  It yields its trial points, as ``_descend`` does.
    """
    lo = (0.0, f0, d0)   # step, value, slope: sufficient decrease, lowest
    hi = None            # the other end of the bracket, once there is one
    best = None
    for _ in range(LINE_SEARCH_EVALS):
        x_new = x + step * p
        f, g = yield x_new
        d = _dot(g, p)
        if f > f0 + C1 * step * d0 or f >= lo[1]:
            hi = (step, f, d)
            if abs(step - lo[0]) * d0 >= -_EPS * abs(f0):
                return best
        elif abs(d) <= -C2 * d0:
            return x_new, f, g
        else:
            if hi is None and d >= 0 or hi is not None and d * (hi[0] - lo[0]) >= 0:
                hi = lo
            lo, best = (step, f, d), (x_new, f, g)
        step = 2.0 * step if hi is None else _cubic_step(lo, hi)
    return best


def _descend(x0):
    """BFGS from x0, a generator: it yields each point it needs and is sent
    back the value and gradient there, so any source of both can drive it.

    Updates an inverse-Hessian estimate, starting from the identity, along
    strong-Wolfe steps (``_line_search``).  The first trial step is scipy's
    rule, 1.01 times the step that repeats the last decrease along a
    linear model, at most 1; the first of all moves x by about 1.  Stops
    when the gradient max-norm is at most ``DESCENT_GTOL``, after
    ``200 * len(x0)`` iterations, or when the line search finds no
    decrease, which is where rounding stops the descent.  Returns the last
    accepted ``(x, f, g)``, never above the start.  Every sum is
    elementwise, so the path does not depend on the BLAS thread count.
    """
    x = np.asarray(x0, dtype=float)
    f, g = yield x
    h = np.eye(x.size)
    f_prev = f + math.sqrt(_dot(g, g)) / 2.0
    for _ in range(200 * x.size):
        if np.maximum.reduce(np.abs(g)) <= DESCENT_GTOL:
            break
        p = -np.add.reduce(h * g, axis=1)
        d0 = _dot(g, p)
        if not d0 < 0.0:
            break
        step = min(1.0, 1.01 * 2.0 * (f - f_prev) / d0)
        found = yield from _line_search(x, p, f, d0, step if step > 0.0 else 1.0)
        if found is None:
            break
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        x, f_prev, f, g = x_new, f, f_new, g_new
        sy = _dot(s, y)
        if sy > 0.0:
            # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, expanded;
            # the inverse-Hessian estimate stays symmetric positive definite.
            rho = 1.0 / sy
            hy = np.add.reduce(h * y, axis=1)
            h = (h - rho * (s[:, None] * hy + hy[:, None] * s)
                 + (rho * rho * _dot(y, hy) + rho) * (s[:, None] * s))
    return x, f, g


@functools.lru_cache(maxsize=128)
def _pair_index(n: int) -> np.ndarray:
    """Index array [l, k] -> n - l + k, read-only, for l = 0..n-1 and k = 0..n:
    where lambda_{k-l} sits in the objective's lambda_{-n} .. lambda_n."""
    index = np.arange(n, 0, -1)[:, None] + np.arange(n + 1)
    index.setflags(write=False)
    return index


def objective_and_gradient(angles):
    """The search's objective at the angles and its exact angle gradient.

    The objective is E(phat) = E(p)/N - log N, the entropy of the
    norm-normalized phat = p / sqrt(N(p)) for p = prod (z - e^{i theta}).
    It is invariant under global scaling of p and under a uniform rotation
    of all angles, and is bounded below by 1 - log 2.  Evaluated by the
    spectral route directly from the angles, so it stays well defined when
    angles collide.  An (R, n) stack of angle sets gives R values and an
    (R, n) gradient, each row the bits it has alone; n angles give a float
    and an n-vector.

    Moving one zero moves p by dp/dtheta_j = w_j = -i tau_j p/(z - tau_j),
    a polynomial of degree n - 1 whose coefficients come from synthetic
    division.  Then dN_j = 2 Re sum_k conj(a_k) w_{j,k}, and since
    d(x log x) = (log x + 1) dx,

        dE_j = 2 Re sum_{|m| <= n} c_{j,m} lambda_{-m} + dN_j,

    with c_{j,m} = sum_k conj(a_k) w_{j,k+m} the cross-correlation of p
    and w_j, and lambda_m = -(1/m) sum_k conj(tau_k)^m (m > 0),
    lambda_{-m} = conj(lambda_m), lambda_0 = 0 the Fourier coefficients of
    log|p|^2.  The pairing ends at |m| = n because conj(p) w_j is a
    trigonometric polynomial of that degree, so the gradient is exact, and
    finite, where zeros collide.  It is summed over the index of w:
    sum_m c_{j,m} lambda_{-m} = sum_l w_{j,l} g_l with
    g_l = sum_k conj(a_k) lambda_{k-l}, one vector for every j.  Finally
    dF = dE/N - (E/N^2 + 1/N) dN.  Sums are elementwise, not BLAS, so the
    bits do not depend on the BLAS thread count.  A stack is evaluated in
    the blocks of ``row_blocks``, which bound the memory of its (rows, n, n)
    tables.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim < 2:
        values, grad = objective_and_gradient(angles[None])
        return float(values[0]), grad[0]
    n = angles.shape[-1]
    blocks = row_blocks(len(angles), n)
    if len(blocks) > 1:
        parts = [objective_and_gradient(angles[block]) for block in blocks]
        return (np.concatenate([values for values, _ in parts]),
                np.concatenate([grad for _, grad in parts]))
    roots = np.exp(1j * angles)
    coeffs = expand_from_roots(roots, 1.0)
    norms = np.add.reduce(np.abs(coeffs) ** 2, axis=-1).tolist()
    sums = power_sums(roots, n)
    # p is monic of degree n, so its lags need no degree discovery.
    entropies = _circle_root_pairing(sums, _lags(coeffs, n)[:, 1:]).tolist()
    # Python floats per row: libm's log and pow, as a row alone takes them.
    values = [e / norm - math.log(norm) for e, norm in zip(entropies, norms)]
    weights = [e / norm**2 + 1.0 / norm for e, norm in zip(entropies, norms)]
    # Row j of a stack's block: the coefficients of p/(z - tau_j), lowest
    # degree first, filled from the top by synthetic division.
    quot = np.empty(roots.shape + (n,), dtype=complex)
    quot[..., n - 1] = coeffs[:, n, None]
    for k in range(n - 1, 0, -1):
        quot[..., k - 1] = coeffs[:, k, None] + roots * quot[..., k]
    # lambda_{-n} .. lambda_n, so that lam_full[n + k - l] = lambda_{k-l}.
    lam_full = np.empty((len(sums), 2 * n + 1), dtype=complex)
    lam = lam_full[:, n + 1 :]
    np.divide(-np.conj(sums), np.arange(1, n + 1), out=lam)
    lam_full[:, n] = 0.0
    np.conj(lam[:, ::-1], out=lam_full[:, :n])
    conj_a = np.conj(coeffs)[:, None, :]
    g = np.add.reduce(lam_full[:, _pair_index(n)] * conj_a, axis=-1)
    rot = -1j * roots
    d_norm = 2.0 * (rot * np.add.reduce(quot * conj_a[..., :n], axis=-1)).real
    d_entropy = 2.0 * (rot * np.add.reduce(quot * g[:, None, :], axis=-1)).real + d_norm
    grad = d_entropy / np.array(norms)[:, None] - np.array(weights)[:, None] * d_norm
    return np.array(values), grad


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of one entropy minimization over zero angles."""

    n: int
    angles: np.ndarray
    achieved: float
    gap: float
    angle_gap_deviation: float
    converged: bool
    restarts: int
    evaluations: int
    min_objective_seen: float
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["angles"] = self.angles.tolist()
        return data


def angle_gap_deviation(angles) -> float:
    """Max deviation of sorted consecutive angle gaps from 2 pi / n."""
    angles = np.sort(np.mod(np.asarray(angles, dtype=float), 2 * np.pi))
    n = angles.size
    if n < 2:
        return 0.0
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    return float(np.max(np.abs(gaps - 2 * np.pi / n)))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _starts(n: int, restarts: int, rng):
    """Gauge-fixed starting angle sets: low-discrepancy plus uniform random."""
    for k in range(restarts):
        if k % 2 == 0:
            offset = rng.random()
            yield 2 * np.pi * np.mod(offset + _GOLDEN * np.arange(1, n), 1.0)
        else:
            yield rng.uniform(0.0, 2 * np.pi, n - 1)


def _clusters(x):
    """``root_clusters`` at ``CLUSTER_TOL`` of the gauge-fixed angles (0, x)."""
    return root_clusters(np.exp(1j * np.concatenate([[0.0], x])), CLUSTER_TOL)


def _split_clusters(clusters, n: int) -> np.ndarray | None:
    """Gauge-fixed simple angles from n zeros grouped as ``clusters``.

    Keeps one zero per cluster (at its center) and moves each extra zero to
    the midpoint of the then largest gap, so the re-descent starts away from
    the coalescence stratum.  Returns the n angles sorted with the first at
    0, or None when every zero is simple.
    """
    if len(clusters) == n:
        return None
    pts = np.sort(np.mod([np.angle(center) for center, _ in clusters], 2 * np.pi))
    for _ in range(n - len(clusters)):
        gaps = np.diff(np.append(pts, pts[0] + 2 * np.pi))
        k = int(np.argmax(gaps))
        pts = np.sort(np.mod(np.append(pts, pts[k] + gaps[k] / 2), 2 * np.pi))
    return pts - pts[0]


def _start(x0):
    """One start, a generator like ``_descend``: it descends from x0 and,
    while the endpoint has a multiple zero, from the split endpoint
    (``_split_clusters``), at most ``MAX_SPLITS`` times.  Returns every
    descent's ``(x, f, g)`` and the multiplicity pattern of the first one,
    largest first.  Each endpoint that may split is clustered once.
    """
    endpoints = [(yield from _descend(x0))]
    clusters = _clusters(endpoints[0][0])
    pattern = sorted((mult for _, mult in clusters), reverse=True)
    while len(endpoints) <= MAX_SPLITS:
        split = _split_clusters(clusters, x0.size + 1)
        if split is None:
            break
        endpoints.append((yield from _descend(split[1:])))
        if len(endpoints) <= MAX_SPLITS:
            clusters = _clusters(endpoints[-1][0])
    return endpoints, pattern


def minimize(n: int, restarts: int = 8, seed: int = 0) -> ExtremalResult:
    """Gradient search for the entropy minimum at degree n.

    Runs BFGS (``_descend``) on the n-1 free angles (the first angle is
    gauge-fixed at 0) with the exact gradient of ``objective_and_gradient``,
    from low-discrepancy and uniform random starts, deterministic under the
    seed.
    When a descent ends with a multiple zero, the cluster is split
    (``_split_clusters``) and the start descends again, at most
    ``MAX_SPLITS`` times (``_start``).  The starts advance in lockstep, one
    stacked evaluation per round.  The result is the best endpoint of all
    descents, the first on a tie; it is ``converged`` when its gradient
    max-norm is at most ``GRAD_TOL``.
    The result records the running minimum of every objective value the
    search computed, line-search points included, which live-checks the
    lower bound across the whole search trajectory.  Each start leaves one
    trace entry: its final endpoint's value and gradient max-norm, the
    evaluations it used, its splits, and the multiplicity pattern of its
    first endpoint.
    """
    if n < 1 or restarts < 1:
        raise ValueError("need n >= 1 and restarts >= 1")
    check_degree(n)
    if restarts > MAX_RESTARTS:
        raise ValueError(f"need n <= {MAX_SERIES_DEGREE} and restarts <= "
                         f"{MAX_RESTARTS}, got n={n} and restarts={restarts}")
    if n == 1:
        # No angle is free: one evaluation at the gauge angle 0 is the search.
        val, grad = objective_and_gradient([0.0])
        best, counts, min_seen = (grad[1:], val, grad[1:]), [1], val
        restarts, trace = 0, []
    else:
        rng = np.random.default_rng(seed)
        starts = [_start(x0) for x0 in _starts(n, restarts, rng)]
        pending = {k: next(start) for k, start in enumerate(starts)}
        counts, outcomes, min_seen = [0] * restarts, [None] * restarts, math.inf
        # One stack per round, the gauge-fixed first angle 0 in every row.
        block = np.zeros((restarts, n))
        while pending:
            rows = block[: len(pending)]
            rows[:, 1:] = list(pending.values())
            values, grads = objective_and_gradient(rows)
            for k, val, grad in zip(list(pending), values.tolist(), grads):
                counts[k] += 1
                min_seen = min(min_seen, val)
                try:
                    pending[k] = starts[k].send((val, grad[1:]))
                except StopIteration as done:
                    outcomes[k] = done.value
                    del pending[k]
        # The first of the least endpoints, in the order of starts and descents.
        best = min((res for endpoints, _ in outcomes for res in endpoints),
                   key=lambda res: res[1])
        trace = []
        for k, (endpoints, pattern) in enumerate(outcomes):
            _, fun, grad = endpoints[-1]
            grad_norm = float(np.abs(grad).max())
            trace.append(
                {"restart": k, "fun": float(fun), "grad_norm": grad_norm,
                 "converged": grad_norm <= GRAD_TOL,
                 "evaluations": counts[k], "splits": len(endpoints) - 1,
                 "pattern": pattern}
            )
    best_x, achieved, best_grad = best
    angles = np.mod(np.concatenate([[0.0], best_x]), 2 * np.pi)
    return ExtremalResult(
        n=n,
        angles=angles,
        achieved=achieved,
        gap=achieved - (1.0 - math.log(2.0)),
        angle_gap_deviation=angle_gap_deviation(angles),
        converged=float(np.abs(best_grad).max(initial=0.0)) <= GRAD_TOL,
        restarts=restarts,
        evaluations=sum(counts),
        min_objective_seen=min_seen,
        trace=trace,
    )


@dataclass(frozen=True)
class CoalescenceRow:
    """Functional values at one perturbation size, with distances to the limit."""

    epsilon: float
    entropy: float
    jensen: float
    polar: float
    gamma: float
    moment_polar: float
    dev_entropy: float
    dev_jensen: float
    dev_polar: float
    dev_gamma: float
    dev_moment: float


@dataclass(frozen=True)
class CoalescenceTable:
    """Convergence table of a root-perturbation schedule toward its limit."""

    rows: list
    limits: dict
    final_max_deviation: float

    CSV_FIELDS = tuple(f.name for f in fields(CoalescenceRow))

    def to_csv_rows(self) -> list[list]:
        return [[getattr(row, f) for f in self.CSV_FIELDS] for row in self.rows]


def checked_schedule(schedule) -> list[float]:
    """A nonempty, finite, positive, strictly decreasing schedule as floats."""
    schedule = [float(e) for e in schedule]
    # Each size is below inf and above the next one, the last above 0; a
    # NaN fails every comparison.
    if not schedule or not all(
            math.inf > a > b for a, b in zip(schedule, schedule[1:] + [0.0])):
        raise ValueError("schedule must be nonempty, finite, positive and "
                         "strictly decreasing")
    return schedule


def coalescence_experiment(p: CirclePoly, schedule) -> CoalescenceTable:
    """Track every functional along perturbed copies of p as epsilon -> 0.

    For each epsilon in the strictly decreasing schedule the roots of p are
    split into simple ones, and E, the Jensen term, the polar functional, the
    remainder sum, and the moment-formula value are compared against the
    values computed directly on p through the difference form (which is the
    limit of the simple-zero values).  The perturbed copies are one stack,
    evaluated in the blocks of ``row_blocks``; each row has the values it
    has alone.
    """
    schedule = checked_schedule(schedule)
    # Built first: their normalization rejects an overflowing p before any work.
    perturbed = stack([perturb_roots(p, eps) for eps in schedule])
    rf = ratio_functional(p)
    limits = {
        "entropy": rf.entropy_integral,
        "jensen": rf.jensen_integral,
        "polar": rf.value,
        "gamma": gamma_remainder(p),
    }
    columns = []
    for rows in row_blocks(len(schedule), p.degree):
        block = perturbed[rows]
        rfe = ratio_functional(block)
        columns.append(np.stack([rfe.entropy_integral, rfe.jensen_integral, rfe.value,
                                 gamma_remainder(block),
                                 polar_term_via_moments(moments(polar_factor(block)))]))
    rows = []
    for eps, (entropy, jensen, polar, gam, mom) in zip(
            schedule, np.concatenate(columns, axis=1).T.tolist()):
        rows.append(
            CoalescenceRow(
                epsilon=eps,
                entropy=entropy,
                jensen=jensen,
                polar=polar,
                gamma=gam,
                moment_polar=mom,
                dev_entropy=abs(entropy - limits["entropy"]),
                dev_jensen=abs(jensen - limits["jensen"]),
                dev_polar=abs(polar - limits["polar"]),
                dev_gamma=abs(gam - limits["gamma"]),
                dev_moment=abs(mom - limits["polar"]),
            )
        )
    last = rows[-1]
    final = max(
        last.dev_entropy, last.dev_jensen, last.dev_polar, last.dev_gamma,
        last.dev_moment,
    )
    return CoalescenceTable(rows, limits, final)
