"""Two independent routes to the two log integrals of the inequality.

Both weigh by |p|^2: the entropy E = int |p|^2 log|p|^2 dm and the Jensen
term int |p|^2 log|q|^2 dm, q = p - (1/n)Dp.  The spectral route
(``ratio_functional``) pairs log coefficients against the autocorrelation
of p, which truncates exactly at deg p: for E those of log|p|^2 on the
given roots, with nothing root-found, and for the Jensen term the log
series of h = q/p, which stops at degree ``MAX_SERIES_DEGREE``.  The
quadrature route (``log_pair_quadrature``) integrates boundary values, with
windowed exponential substitutions around the zeros on or near the circle.
x log x = 0 at x = 0 throughout, and quotient functionals are differences
of the two integrals, never pointwise ratios.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    IllConditioned,
    NonUnimodularRoot,
    ZeroLeading,
    ZeroPolynomial,
)
from .polycircle import (
    TAU_SEP,
    CirclePoly,
    _polar_weights,
    as_coefficients,
    eval_poly,
    poly_degree,
    power_sums,
    unstacked,
)

# Highest degree the log series of h supports: the range the tests cover.
# Rounding in the h'/h division recurrence grows with the coefficients of
# 1/h = 1 + q*/q, which stay bounded.  On 150 random unit-norm instances at
# n = 128 the Jensen term of ratio_functional stayed within 4e-14 of a
# 160-bit evaluation (and within 2e-12 at n = 512).
MAX_SERIES_DEGREE = 128
_S_CUT = 37.0        # window substitutions stop at |t - angle| = e^{-37}
# A window piece whose cut lies below this starts as one Kronrod panel.  A
# node c +/- e^{-s} can round onto its center c only where e^{-s} is below
# about 1.5 spacing(c).  Every center lies below 8 (2pi plus a window past
# it), where spacing(c) <= 2^-50, so that takes s > -log(1.5 * 2^-50) =
# 34.25.  A piece cut short of that has no node the log-distance kernel
# floors, and the K21 - G10 estimate refines it as it does arcs.  A piece
# that reaches it, a full-length window (_S_CUT) among them, keeps panels
# at most 2.5 wide in s, which hold each floored node's weight below 1e-15.
_ONE_PANEL_CUT = 34.0
_TOLERANCE = 1e-9    # quadrature accuracy target, times max(1, |scale|)
_WINDOW = 1e-2       # width of the substitution window around a singular angle
_MAX_NODES = 2 ** 22  # most integrand nodes of one quadrature, all rounds
_SWEEPS = 60         # most Aberth-Ehrlich sweeps when finding the zeros of B
_LOG_FLOOR = 1e-64   # clamps squared distances so log never returns -inf
_GROUP = 8           # circle-zero factors multiplied per logarithm
_BLOCK = 1024        # integrand nodes per (groups x nodes) log-distance block
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Tail cuts tried in turn, and the half-widths e^{-s} they leave.
_S_LADDER = np.arange(10.0, _S_CUT)
_U_LADDER = np.array([math.exp(-s) for s in _S_LADDER])


def check_degree(n: int) -> None:
    """Raise ``IllConditioned`` above ``MAX_SERIES_DEGREE``: the one degree rule."""
    if n > MAX_SERIES_DEGREE:
        raise IllConditioned(f"the log series is certified up to degree "
                             f"{MAX_SERIES_DEGREE}, got degree {n}")


@functools.lru_cache(maxsize=128)
def _lag_window(deg: int) -> np.ndarray:
    """Index array [k, j] -> k + j, read-only, for lags and terms 0..deg."""
    lags = np.arange(deg + 1)
    window = lags[:, None] + lags
    window.setflags(write=False)
    return window


def _lags(arr, deg: int) -> np.ndarray:
    """Autocorrelation c_0..c_deg of each row of a complex stack ``arr`` of
    highest degree ``deg``: c_k = sum_j a_{j+k} conj(a_j), so |A(e^{it})|^2 =
    sum_{|k| <= deg} c_k e^{ikt}, c_{-k} = conj(c_k) and c_0 is real.  Lag k
    pairs a_k..a_{k+deg} (zero past a_deg) with a_0..a_deg: one elementwise
    product of a (deg + 1)-square window with conj(a), summed along its rows.
    """
    padded = np.zeros(arr.shape[:-1] + (2 * deg + 1,), dtype=complex)
    padded[..., : deg + 1] = arr[..., : deg + 1]
    # take lays the windows out row-major, so each lag sums along
    # contiguous memory whatever the stack size.
    windows = padded.take(_lag_window(deg), axis=-1)
    c = np.add.reduce(windows * np.conj(padded[..., None, : deg + 1]), axis=-1)
    # A fused multiply-add can leave rounding in the imaginary part of c_0.
    c[..., 0] = c[..., 0].real
    return c


def _circle_root_pairing(sums, cm) -> np.ndarray:
    """-2 Re sum_m c_m P_m / m, per row of a stack.

    P_m = sum_tau tau^m are the power sums of the roots (``power_sums``).
    For unimodular tau, log|e^{it} - tau|^2 = -2 Re sum_m (conj(tau) e^{it})^m / m,
    so this pairs log prod|e^{it} - tau|^2 with the autocorrelation tail
    ``cm`` = (c_1, .., c_d) of |A|^2; the series truncates at m = d.
    """
    m = np.arange(1, cm.shape[-1] + 1)
    return -2.0 * np.add.reduce(sums * (cm / m), axis=-1).real


def _given_roots(b_roots, deg: int) -> np.ndarray:
    """The given roots of B, projected onto the unit circle.

    There must be one per degree of B, each within ``TAU_SEP`` of the circle
    (``NonUnimodularRoot`` otherwise, a NaN root included).
    """
    roots = np.atleast_1d(np.asarray(b_roots, dtype=complex))
    if roots.shape[-1] != deg:
        raise ValueError(f"root list has {roots.shape[-1]} entries, expected {deg}")
    mods = np.abs(roots)
    if roots.size and not np.abs(mods - 1.0).max() <= TAU_SEP:
        raise NonUnimodularRoot(
            f"b_roots must lie on the unit circle (within {TAU_SEP:.0e})"
        )
    return roots / mods


def _pair_circle_roots(c, B, deg: int, b_roots):
    """The spectral E: int |A|^2 log|B|^2 dm with A = B = p, from the lags
    ``c = _lags(p, deg)`` and the given circle roots tau of B = b_n prod
    (z - tau), per row of a stack.

    On the circle log|B|^2 = 2 log|b_n| + sum_tau log|e^{it} - tau|^2, so
    the integral is 2 c_0 log|b_n| - 2 Re sum_m c_m P_m / m
    (``_circle_root_pairing``).  The roots are checked by ``_given_roots``,
    and every row of B needs a nonzero b_n (``ZeroLeading``).  Taking the
    lags lets ``ratio_functional`` build them once for both of its terms.
    """
    taus = _given_roots(b_roots, deg)
    lead = np.abs(B[..., deg])
    if not lead.all():
        raise ZeroLeading(f"every row of B needs a nonzero coefficient at degree {deg}")
    sums = power_sums(taus, c.shape[-1] - 1)
    return unstacked(c[..., 0].real * 2.0 * np.log(lead)
                     + _circle_root_pairing(sums, c[..., 1:]))


# ---------------------------------------------------------------------------
# Quadrature route
# ---------------------------------------------------------------------------

# QUADPACK qk21 (Piessens et al., 1983): the nonnegative nodes of the
# 21-point Kronrod rule on [-1, 1], descending, their Kronrod weights, and
# the weights of the embedded 10-point Gauss rule at the odd-numbered ones.
# Written out: the package does not depend on scipy.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745109347, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651146,
)
# The same rules on all 21 nodes in ascending order; Gauss weight 0 where
# only Kronrod has a node.
_K21_NODES = np.concatenate((-np.array(_XGK[:-1]), _XGK[::-1]))
_K21_WEIGHTS = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1:10:2] = _WG
_G10_WEIGHTS[19:10:-2] = _WG
_KG_WEIGHTS = _K21_WEIGHTS - _G10_WEIGHTS


def _kronrod_panels(table, panels):
    """Kronrod nodes in t and their weights, on ``panels[i]`` equal panels of
    row i of a piece table (see ``circle_quadrature``).

    The panel edges of row i are those of np.linspace(lo, hi, panels[i] + 1),
    rounding included: k * ((hi - lo) / panels) + lo, the last edge exactly
    hi.  An arc row (sign 0) is an interval in t.  A window row is one in s,
    mapped to t = center + sign e^{-s}, with dt/ds folded into the weights.
    One row of 21 per panel, row by row: the nodes, and the half-width
    times dt/dx at each.
    """
    lo, hi, _, center, sign = table.T
    piece = np.repeat(np.arange(panels.size), panels)
    ends = np.cumsum(panels)
    k = np.arange(piece.size) - (ends - panels)[piece]
    step = ((hi - lo) / panels)[piece]
    start = lo[piece]
    left = k * step + start
    right = (k + 1) * step + start
    right[ends - 1] = hi
    half = ((hi - lo) / (2.0 * panels))[piece]
    mids = 0.5 * (left + right)
    nodes = mids[:, None] + half[:, None] * _K21_NODES
    weights = np.repeat(half[:, None], _K21_NODES.size, axis=1)
    rows = np.flatnonzero(sign[piece])  # the panels of window rows
    win = piece[rows]
    u = np.exp(-nodes[rows])
    nodes[rows] = center[win, None] + sign[win, None] * u
    weights[rows] *= u
    return nodes, weights


def circle_quadrature(f, singular_angles=(), scale: float = 1.0,
                      s_cut_of=None) -> float:
    """Mean of a vectorized integrand f(t) over t in [0, 2pi).

    Around each singular angle a window of width ``_WINDOW`` is cut out and
    integrated under the substitution t = angle +/- e^{-s}, which resolves
    logarithmic singularities; the complement arcs are pieces of their own,
    and with no singular angles the whole circle is one arc.

    The pieces are laid out as one table, a float array with one row per
    piece, window sides first: ``(lo, hi, base panels, center, sign)``.  A
    window side's [lo, hi] is an interval in s, mapped to t = center +
    sign e^{-s} with sign -1 or +1; an arc's is an interval in t, with
    center and sign 0.  Every piece is cut into equal panels: an arc into
    panels at most 0.15 wide, a window side cut short of s =
    ``_ONE_PANEL_CUT`` (34) into one panel in s, and one that reaches it
    into panels at most 2.5 wide (why: see ``_ONE_PANEL_CUT``), at least 3,
    as s0 <= -log 5e-13 for centers more than 1e-12 apart.
    ``_kronrod_sum`` integrates the table to the tolerance ``_TOLERANCE`` *
    max(1, |scale|).

    ``s_cut_of`` optionally shortens the substitution tail: called once with
    the array of window centers (an angle past 2pi where a window wraps
    around), it returns one cut per center, and the mass within e^{-cut} of
    the center, which the caller bounds, is dropped.

    Angles within 1e-12 of each other, also across 2pi, are one center.
    Overlapping windows split at the midpoints between their centers, and a
    run of them across 2pi continues past it.  Raises ``ValueError`` when
    the windows cover the whole circle, and ``BudgetExceeded`` when the
    rounds would evaluate f on more than ``_MAX_NODES`` nodes in all.
    """
    tol = _TOLERANCE * max(1.0, abs(scale))
    angles = np.asarray(singular_angles, dtype=float)
    windows = np.empty((0, 5))
    starts = ends = np.zeros(1)  # no window: one arc, [0, 2pi)
    if angles.size:
        # Deduplicate angle list; multiplicity lives inside the integrand.
        angles = np.sort(np.mod(angles, 2 * np.pi))
        keep = np.concatenate(([True], np.diff(angles) > 1e-12))
        if keep.sum() > 1 and (angles[keep][-1] - angles[keep][0]) >= 2 * np.pi - 1e-12:
            keep[np.flatnonzero(keep)[-1]] = False
        # Sorted again: np.mod(-1e-20, 2pi) is 2pi, which this takes to 0.
        centers = np.sort(np.mod(angles[keep], 2 * np.pi))
        hw = _WINDOW / 2.0
        # A run is a chain of overlapping windows; first marks where one starts.
        first = np.concatenate(([True], centers[1:] - hw > centers[:-1] + hw))
        runs = np.flatnonzero(first)
        if runs.size > 1 and centers[0] + 2 * np.pi - hw <= centers[-1] + hw:
            # The first run overlaps the last across 2pi and continues it.
            k = runs[1]
            centers = np.concatenate((centers[k:], centers[:k] + 2 * np.pi))
            first = np.concatenate((first[k:], np.zeros(k, dtype=bool)))
        last = np.append(first[1:], True)
        # Window sides: the midpoint with a neighbour in the run, else c -/+ hw.
        mid = 0.5 * (centers[:-1] + centers[1:])
        left = np.where(first, centers - hw, np.append(0.0, mid))
        right = np.where(last, centers + hw, np.append(mid, 0.0))
        starts, ends = left[first], right[last]
        if sum((ends - starts).tolist()) >= 2 * np.pi:
            raise ValueError(
                f"the windows of {centers.size} singular angles, {_WINDOW:g} wide "
                "each, cover the whole circle"
            )
        s_cut = np.full(centers.size, _S_CUT)
        if s_cut_of is not None:
            s_cut = np.minimum(s_cut, s_cut_of(centers))
        # Each side of a center, left then right, is the s-interval
        # [-log |side|, s_cut] under t = center + sign(side) e^{-s}; s0
        # takes libm's log, which rounds apart from numpy's.
        side = (np.array((left, right)).T - centers[:, None]).ravel()
        s0 = np.array([-math.log(abs(x)) for x in side.tolist()])
        s_cut = np.repeat(s_cut, 2)
        base = np.where(s_cut < _ONE_PANEL_CUT, 1.0, np.ceil((s_cut - s0) / 2.5))
        windows = np.array((s0, s_cut, base, np.repeat(centers, 2), np.sign(side))).T
        windows = windows[s0 < s_cut]
    # The arcs between runs, the last one's to the first start past 2pi.
    nxt = np.append(starts[1:], starts[0] + 2 * np.pi)
    zero = np.zeros(nxt.size)
    base = np.maximum(1.0, np.ceil((nxt - ends) / 0.15))
    arcs = np.array((ends, nxt, base, zero, zero)).T[nxt - ends > 1e-12]
    return _kronrod_sum(f, np.concatenate((windows, arcs)), tol)[0]


def _kronrod_sum(f, table, tol: float):
    """The rounds of ``circle_quadrature`` on a piece table: (mean of f,
    error estimate).

    Every panel is integrated by the 21-point Gauss-Kronrod rule (QUADPACK
    qk21), and |K21 - G10|, its difference from the embedded 10-point Gauss
    rule, estimates the panel's error.  Each round lays out the panels of
    the pieces still refining, their base counts doubled once per level,
    with one ``_kronrod_panels`` call, and evaluates f once on them.  The
    Kronrod sum is returned once the estimates of all pieces sum to at most
    ``tol``; until then, every piece whose estimate exceeds its share,
    tol / pieces, has its panels doubled.  ``BudgetExceeded`` is raised,
    before f is called, when the nodes of all rounds so far would exceed
    ``_MAX_NODES``; that bounds both the time and the memory of one call.
    The weighted sums are numpy reductions, not np.dot: BLAS ddot rounds
    differently with the number of BLAS threads.  The nodes and weights of
    a row depend on that row and its level alone, so a row of concatenated
    tables gets the ones it gets in its own table.
    """
    pieces = len(table)
    base = table[:, 2].astype(int)
    bound = 2 * np.pi * tol  # value and est are integrals over [0, 2pi)
    levels = np.zeros(pieces, dtype=int)
    value = np.zeros(pieces)
    est = np.zeros(pieces)
    todo = np.arange(pieces)
    nodes = 0
    while True:
        panels = base[todo] << levels[todo]
        pts, wts = _kronrod_panels(table[todo], panels)
        nodes += pts.size
        if nodes > _MAX_NODES:
            raise BudgetExceeded(
                f"panel refinement did not reach {tol:.2e} within {_MAX_NODES} nodes"
            )
        g = f(pts.ravel()).reshape(pts.shape) * wts
        starts = np.cumsum(panels) - panels
        value[todo] = np.add.reduceat((g * _K21_WEIGHTS).sum(axis=1), starts)
        est[todo] = np.add.reduceat(np.abs((g * _KG_WEIGHTS).sum(axis=1)), starts)
        total = est.sum()
        if total <= bound:
            return float(value.sum()) / (2 * np.pi), float(total) / (2 * np.pi)
        todo = np.flatnonzero(est > bound / pieces)
        if todo.size == 0:  # the sum exceeds the bound only by rounding
            todo = np.array([np.argmax(est)])
        levels[todo] += 1


def _log_distance_sum(t: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """sum_j log |e^{it} - e^{i angles_j}|^2 at every t.

    The factors z - tau_j, with z = e^{it} and tau_j = e^{i angles_j} from
    the same np.exp, so that t == a_j gives an exact 0, are multiplied
    ``_GROUP`` at a time, angles j, j + 1, .. in order, and each group takes
    one log|product|^2.  Every factor is at most 2, so no product
    overflows.  At a node where some group's |product|^2 falls below the
    smallest normal double (an exact zero factor at t == a_j, or eight
    factors of about 5e-20 each), the sum is taken factor by factor
    instead: sum_j log max(|z - tau_j|^2, _LOG_FLOOR).  Near a zero a
    factor errs by O(eps/|t - a|) relative to the distance, as the chord
    2 sin((t - a)/2) does, since the node t is itself rounded.

    Evaluated on (groups x nodes) blocks of ``_BLOCK`` nodes, so memory is
    O(len(angles) / _GROUP * _BLOCK) rather than O(len(angles) * len(t)).
    Each block sums its groups in order, as one full matrix would.  A
    remainder shorter than a block joins the last block: numpy sums a
    one-column matrix pairwise, which rounds differently.
    """
    taus = np.exp(1j * angles)
    # Row g of a block holds the product of the factors of angles
    # _GROUP g .. _GROUP g + _GROUP - 1; position k of every group is
    # taus[k::_GROUP], and only the last group can be short.
    slots = [taus[k::_GROUP, None] for k in range(min(_GROUP, taus.size))]
    out = np.empty(t.size)
    lo = 0
    while lo < t.size:
        hi = t.size if t.size - lo < 2 * _BLOCK else lo + _BLOCK
        z = np.exp(1j * t[lo:hi])
        prod = z - slots[0]
        for tau in slots[1:]:
            prod[: tau.shape[0]] *= z - tau
        # A spent matrix is freed at once: no two blocks' are held together.
        sq = prod.real * prod.real + prod.imag * prod.imag
        del prod
        low = np.flatnonzero((sq < _TINY).any(axis=0))
        out[lo:hi] = np.log(np.maximum(sq, _TINY)).sum(axis=0)
        del sq
        if low.size:
            # One row per node, so that its sum does not depend on how many
            # nodes take this path.
            diff = z[low, None] - taus
            d2 = diff.real * diff.real + diff.imag * diff.imag
            out[lo + low] = np.log(np.maximum(d2, _LOG_FLOOR)).sum(axis=1)
        lo = hi
    return out


def _aberth_roots(b: np.ndarray) -> np.ndarray:
    """The zeros of b_0 + b_1 z + .. + b_n z^n, b_0 != 0 != b_n, by
    Aberth-Ehrlich sweeps (Bini and Fiorentino 2000), uncertified.

    They start on one circle of radius |b_0/b_n|^(1/n) (clamped to
    e^{+-700}, so that every start is finite), at angles 2 pi k / n + 0.7,
    and each sweep moves every approximation z that has not stopped to
    z - 1/(B'/B - sum 1/(z - z_j)), the sum over the other approximations;
    B'(z) = 0 gives a finite step.  B and B' are
    sums over the powers of z at |z| <= 1, and of w = 1/z, in the reversed
    polynomial R(w) = w^n B(z), at |z| > 1, where B'/B = w (n - w R'/R): no
    power overflows.  An approximation stops once |B(z)| <= 8 (n + 1) eps
    sum |b_k z^k|, a backward error at rounding level; one still moving
    after ``_SWEEPS`` sweeps, or whose step is not finite, stays where it
    is.  The sums are numpy reductions, not BLAS.
    """
    n = b.size - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    log_r = (math.log(abs(b[0])) - math.log(abs(b[n]))) / n
    z = math.exp(min(max(log_r, -700.0), 700.0)) * np.exp(
        1j * (2 * np.pi / n * np.arange(n) + 0.7))
    # The coefficients against powers of z (row 0) and of 1/z (row 1).
    coef = np.stack((b, b[::-1]))
    dcoef = coef[:, 1:] * np.arange(1, n + 1)
    tol = 8.0 * (n + 1) * _EPS
    active = np.arange(n)
    with np.errstate(all="ignore"):
        for _ in range(_SWEEPS):
            za = z[active]
            outer = np.abs(za) > 1.0
            x = np.where(outer, 1.0 / za, za)
            rows = outer.astype(np.intp)
            powers = np.repeat(x[:, None], n + 1, axis=1)
            powers[:, 0] = 1.0
            np.multiply.accumulate(powers, axis=1, out=powers)
            terms = powers * coef[rows]
            v = terms.sum(axis=1)
            moving = np.abs(v) > tol * np.abs(terms).sum(axis=1)
            if not moving.any():
                break
            dlog = (powers[:, :-1] * dcoef[rows]).sum(axis=1) / v
            dlog = np.where(outer, x * (n - x * dlog), dlog)
            diff = za[:, None] - z
            diff[np.arange(active.size), active] = np.inf
            moved = za - 1.0 / (dlog - (1.0 / diff).sum(axis=1))
            moving &= np.isfinite(moved)
            active = active[moving]
            z[active] = moved[moving]
    return z


def _tail_amplitudes(A, centers) -> np.ndarray:
    """Bounds on |A(e^{it})| over |t - c| <= e^{-s}, one row per center c
    and one column per s of ``_S_LADDER``.

    Along the chord from e^{ic}, of length at most u = e^{-s} and inside the
    closed disk, |A| <= |A(c)| + u min(deg A sum|a_j|, |A'(c)| +
    u/2 sum j(j-1)|a_j|): a first-order bound, or Taylor's with the
    remainder bounded by |A''| on the disk.  A(c) and c A'(c) are sums over
    the powers of e^{ic}, taken by repeated products; each carries an
    allowance of 10 (deg A + 1) eps times its sum of |coefficients| for the
    rounding of e^{ic}, of the powers and of the sum.
    """
    a = as_coefficients(A)
    j = np.arange(a.size)
    abs_a = np.abs(a)
    sum_a = float(abs_a.sum())
    rounding = 10.0 * (poly_degree(a) + 1) * _EPS
    powers = np.ones((np.size(centers), a.size), dtype=complex)
    powers[:, 1:] = np.exp(1j * np.asarray(centers, dtype=float))[:, None]
    np.cumprod(powers, axis=1, out=powers)
    value = np.abs((powers * a).sum(axis=1)) + rounding * sum_a
    # z A'(z) has the modulus of A'(z) on the circle.
    slope = np.abs((powers * (j * a)).sum(axis=1)) + rounding * float((j * abs_a).sum())
    curvature = float((j * (j - 1) * abs_a).sum())
    chord = np.minimum(poly_degree(a) * sum_a,
                       slope[:, None] + 0.5 * _U_LADDER * curvature)
    return value[:, None] + _U_LADDER * chord


def log_pair_quadrature(A, B, b_roots=None) -> float:
    """Integral of |A|^2 log|B|^2 over dm by adaptive circle quadrature, in
    the two forms the inequality needs, both with A = p; ``ValueError`` for
    any other input.

    The entropy form, E = int |p|^2 log|p|^2 dm, takes A = B = p and
    ``b_roots``, the deg B zeros tau of B = b_n prod (z - tau) on the unit
    circle (``NonUnimodularRoot`` otherwise).  log|B|^2 is log|b_n|^2 plus
    the log factors of e^{it} - tau, multiplied eight to a logarithm
    (``_log_distance_sum``), which stay accurate arbitrarily close to the
    singularity; |A|^2 is exp(log|B|^2), and no polynomial is evaluated.

    The Jensen form, int |p|^2 log|q|^2 dm, takes no roots, A = p of degree
    n >= 1 with a_0 != 0 (as |a_0| = |a_n| on every circle polynomial), and
    B = q, exactly the (n - j)/n a_j, j < n, that ``polar_factor`` builds;
    these checks come before any root finding.  A and q are evaluated by
    Horner's rule, and the zeros of q found by ``_aberth_roots`` only place
    windows, one at the angle of each found zero less than ``_WINDOW`` off
    the circle.  They lie in |z| >= 1 (Laguerre), on the circle only at a
    multiple zero of p, where A vanishes too; and for a zero rho with
    |rho| >= 1, |e^{it} - rho| >= |e^{it} - rho/|rho||, so its log factor's
    singular part is no larger than that of a circle zero at the same
    angle, and by rearrangement, over the tail, no larger than that of one
    at the window center.

    Each window is integrated under the exponential substitution, which
    stops at the first s = 10, 11, .. where the mass beyond it is certified
    below its share of the tolerance; with no window the whole circle is
    one arc piece of ``circle_quadrature``.  The integrand follows x log x
    = 0 where A vanishes.  Raises ``ValueError`` when A or B holds a NaN or
    an infinity, and ``BudgetExceeded`` as ``circle_quadrature`` does.
    """
    a_arr = as_coefficients(A)
    b_arr = as_coefficients(B)
    if not (np.isfinite(a_arr).all() and np.isfinite(b_arr).all()):
        raise ValueError("the coefficients of A and B must be finite")
    if b_roots is not None and not np.array_equal(a_arr, b_arr):
        raise ValueError("with b_roots, A and B must be the same coefficients")
    if b_roots is None and ((n := poly_degree(a_arr)) < 1 or a_arr[0] == 0 or not
                            np.array_equal(b_arr, _polar_weights(n)[0] * a_arr[:n])):
        raise ValueError("without b_roots, A must have degree >= 1 and A(0) != 0, "
                         "and B must be its polar factor q")
    deg = poly_degree(b_arr)
    if deg < 0:
        raise ZeroPolynomial("log|B| undefined for the zero polynomial")
    body = b_arr[: deg + 1]
    # libm's log (numpy's can round apart): E's leading term, and a constant q.
    log_lead = math.log(max(abs(body[deg]) ** 2, _LOG_FLOOR))
    if b_roots is not None:
        window_angles = np.angle(_given_roots(b_roots, deg))

        def integrand(t):
            logb = log_lead + _log_distance_sum(t, window_angles)
            a2 = np.exp(logb)
            return np.where(a2 > 0, a2 * logb, 0.0)
    else:
        found = _aberth_roots(body)
        window_angles = np.angle(found[np.abs(np.abs(found) - 1.0) < _WINDOW])

        def integrand(t):
            z = np.exp(1j * t)
            if deg:
                logb = np.log(np.maximum(np.abs(eval_poly(body, z)) ** 2, _LOG_FLOOR))
            else:
                logb = np.full(t.shape, log_lead)
            a2 = np.abs(eval_poly(a_arr, z)) ** 2
            return np.where(a2 > 0, a2 * logb, 0.0)

    scale = float(np.sum(np.abs(a_arr) ** 2)) * max(
        1.0, 2.0 * abs(math.log(max(abs(body[deg]), 1e-300)))
    )

    # The substitution tail beyond u0 = e^{-s} contributes at most
    # amp^2 weight, weight = 2 u0 (2 deg B (s + 2) + 160), with amp a bound
    # on |A| within u0 of the center; where A vanishes at the center this
    # stops the tail far earlier than the generic cutoff.
    budget = _TOLERANCE * max(1.0, scale) / (8.0 * max(1, window_angles.size))
    weight = 2.0 * _U_LADDER * (2.0 * deg * (_S_LADDER + 2.0) + 160.0)

    def s_cut_of(centers: np.ndarray):
        ok = _tail_amplitudes(a_arr, centers) ** 2 * weight <= budget
        return np.where(ok.any(axis=1), _S_LADDER[ok.argmax(axis=1)], _S_CUT)

    return circle_quadrature(integrand, window_angles, scale=scale,
                             s_cut_of=s_cut_of)


# ---------------------------------------------------------------------------
# Ratio functional (difference of the two logarithmic integrals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioFunctionalValue:
    """The difference functional together with its two constituent integrals."""

    value: float
    entropy_integral: float
    jensen_integral: float


def ratio_functional(p: CirclePoly) -> RatioFunctionalValue:
    """The polar-quotient functional of p, as a difference of integrals.

    The difference of int |p|^2 log|p|^2 dm and the Jensen term
    int |p|^2 log|q|^2 dm, q = p - (1/n)Dp, is -int |p|^2 log|h|^2 dm for
    h = q/p = (1/n) sum_tau 1/(1 - conj(tau) z) over the roots tau of p.
    The coefficients of h (``CirclePoly.h_series``) and of the entropy
    pairing both come from the given roots, so nothing is root-found and no
    pointwise quotient is formed; the series of h'/h is the first row of
    the division by h that the moments read too (``CirclePoly.h_quotients``).
    h has no zeros or poles in the open disk (Laguerre's theorem on polar
    derivatives puts the zeros of q in |z| >= 1), and its log coefficients
    through z^n are those of its degree-n truncation.
    Dividing the series by h rather than by q keeps the recurrence stable:
    1/h = 1 + q*/q has bounded coefficients, while those of 1/q grow when
    zeros of p cluster.  Raises ``IllConditioned`` above degree
    ``MAX_SERIES_DEGREE``.  A stack of polynomials gives one value per row.
    """
    n = p.degree
    check_degree(n)
    a = p.coefficients
    # p has degree n in every row, so its lags need no degree discovery.
    c = _lags(a, n)
    cm = c[..., 1:]
    m = np.arange(1, n + 1)
    entropy_integral = _pair_circle_roots(c, a, n, p.roots)
    # log h = sum_m l_m z^m with l_m = [h'/h]_{m-1} / m, as h(0) = 1, so
    # log|h|^2 = 2 Re sum_m l_m e^{imt} pairs with the lags to
    # 2 Re sum_m c_m conj(l_m), which truncates at m = n.
    dlog = p.h_quotients[..., 0, :]
    value = unstacked(-2.0 * (np.conj(dlog / m) * cm).sum(axis=-1).real)
    return RatioFunctionalValue(value, entropy_integral, entropy_integral - value)
