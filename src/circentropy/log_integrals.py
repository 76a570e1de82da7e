"""Two independent evaluators for integrals of |A|^2 log|B|^2 over the circle.

The spectral route pairs the Taylor coefficients of log B against the
autocorrelation of A, which truncates exactly at deg A.  The log
coefficients come either from given unit-circle roots of B or, when B has
no zeros in the open disk, from the power series of B'/B; no roots are
found.  The series route stops at degree ``MAX_SERIES_DEGREE``.  The
quadrature route integrates the boundary values numerically, with windowed
exponential substitutions around the zeros of B on or near the circle to
resolve the logarithmic singularities.  The convention x log x = 0 at x = 0 applies
throughout, and quotient functionals are always evaluated as differences of
the two integrals, never as pointwise ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke_moments import series_divide
from .errors import (
    BudgetExceeded,
    IllConditioned,
    NonUnimodularRoot,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from .polycircle import (
    TAU_SEP,
    CirclePoly,
    as_coefficients,
    eval_poly,
    poly_degree,
)

# Highest degree the spectral route supports: the range the tests cover.
# Rounding in the B'/B division recurrence grows with the coefficients of
# 1/B.  For B = q itself, 5 of 150 random unit-norm instances at n = 128
# were off by more than 1e-10 (up to 1.5e-3); for B = h in ratio_functional
# the Jensen term stayed within 4e-14 of a 160-bit evaluation on the same
# instances (and within 2e-12 at n = 512).
MAX_SERIES_DEGREE = 128
_S_CUT = 37.0        # window substitutions stop at |t - angle| = e^{-37}
_TOLERANCE = 1e-9    # quadrature accuracy target, times max(1, |scale|)
_WINDOW = 1e-2       # width of the substitution window around a singular angle
_MAX_DEPTH = 40      # most panel doublings of any one quadrature piece
_LOG_FLOOR = 1e-64   # clamps squared distances so log never returns -inf
_BLOCK = 2048        # integrand nodes per (factors x nodes) log-distance block


@dataclass(frozen=True)
class TrigSquare:
    """|A(e^{it})|^2 as a trigonometric polynomial.

    ``coefficients`` holds c_{-d}..c_d with c_k = sum_j A_{j+k} conj(A_j),
    so c_{-k} = conj(c_k) and c_0 = sum |A_j|^2.
    """

    coefficients: np.ndarray
    degree: int

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.degree:
            return 0j
        return complex(self.coefficients[self.degree + k])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.arange(-self.degree, self.degree + 1)
        return np.real(np.exp(1j * np.outer(t, k)) @ self.coefficients)


def trig_square(A) -> TrigSquare:
    """Autocorrelation of the coefficient vector of A."""
    arr = as_coefficients(A)
    deg = poly_degree(arr)
    if deg < 0:
        raise ZeroPolynomial("|A|^2 undefined for the zero polynomial")
    a = arr[: deg + 1]
    c = np.zeros(2 * deg + 1, dtype=complex)
    for k in range(deg + 1):
        ck = np.vdot(a[: deg + 1 - k], a[k:])
        c[deg + k] = ck
        c[deg - k] = np.conj(ck)
    return TrigSquare(c, deg)


def polished_roots(B) -> np.ndarray:
    """Companion-matrix roots of B, each polished by one Newton step.

    Trailing zero coefficients lower the degree and give no roots.  Only
    coefficient input parsing and quadrature window placement need roots
    that are not given; the spectral pairing never finds roots.
    """
    arr = as_coefficients(B)
    deg = poly_degree(arr)
    if deg < 0:
        raise ZeroPolynomial("the zero polynomial has no root set")
    if deg == 0:
        return np.zeros(0, dtype=complex)
    body = arr[: deg + 1]
    roots = np.roots(body[::-1])
    dcoeffs = body[1:] * np.arange(1, deg + 1)
    bv = eval_poly(body, roots)
    dv = eval_poly(dcoeffs, roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(dv != 0, bv / dv, 0.0)
    ok = np.isfinite(step) & (np.abs(step) < 0.1 * (1.0 + np.abs(roots)))
    return roots - np.where(ok, step, 0.0)


def _circle_root_pairing(roots, cm) -> float:
    """-2 Re sum over roots tau and m >= 1 of c_m tau^m / m.

    For unimodular tau, log|e^{it} - tau|^2 = -2 Re sum_m (conj(tau) e^{it})^m / m,
    so this pairs log prod|e^{it} - tau|^2 with the autocorrelation tail
    ``cm`` = (c_1, .., c_d) of |A|^2; the series truncates at m = d.
    """
    m = np.arange(1, cm.size + 1)
    powers = roots[:, None] ** m[None, :]
    return -2.0 * float((powers @ (cm / m)).real.sum())


def log_pair_spectral(A, B, b_roots=None) -> float:
    """Integral of |A|^2 log|B|^2 over dm, by the exact series pairing.

    ``A`` is a coefficient vector or its ``trig_square``, so that callers
    pairing the same A against several B build the autocorrelation once.

    With log B = log B(0) + sum_m l_m z^m on the disk, log|B|^2 on the
    circle is 2 log|B(0)| + 2 Re sum_m l_m e^{imt}, and pairing it against
    the autocorrelation c_m of A gives 2 c_0 log|B(0)| + 2 Re sum_m c_m
    conj(l_m), which truncates exactly at m = deg A.  The log coefficients
    come from one of two places:

    - ``b_roots`` given: the roots of B, which must lie on the unit circle
      (``NonUnimodularRoot`` otherwise); they are input data, not found here.
    - no roots: the Taylor series l_m = [B'/B]_{m-1} / m, which uses the
      coefficients of B only through degree deg A.  This is the integral
      when B has no zeros in the open unit disk (zeros on the circle are
      fine); a zero inside, other than at 0, gives a wrong value, not an
      error.  Rounding grows with the coefficients of 1/B, so zeros of B
      clustered near the circle cost digits.  This route raises
      ``IllConditioned`` when deg A or deg B exceeds ``MAX_SERIES_DEGREE``;
      use ``log_pair_quadrature`` there.
    """
    ts = A if isinstance(A, TrigSquare) else trig_square(A)
    arr = as_coefficients(B)
    deg = poly_degree(arr)
    if deg < 0:
        raise ZeroPolynomial("log|B| undefined for the zero polynomial")
    d = ts.degree
    c0 = float(ts.coefficients[d].real)
    cm = ts.coefficients[d + 1 :]
    if b_roots is not None:
        roots = np.asarray(b_roots, dtype=complex)
        if roots.size != deg:
            raise ValueError(
                f"root list has {roots.size} entries, expected {deg}"
            )
        mods = np.abs(roots)
        if roots.size and not np.abs(mods - 1.0).max() <= TAU_SEP:
            raise NonUnimodularRoot(
                f"b_roots must lie on the unit circle (within {TAU_SEP:.0e})"
            )
        return (c0 * 2.0 * math.log(abs(arr[deg]))
                + _circle_root_pairing(roots / mods, cm))
    if max(d, deg) > MAX_SERIES_DEGREE:
        raise IllConditioned(
            f"the log series is certified up to degree {MAX_SERIES_DEGREE}, "
            f"got degrees {d} and {deg}; use log_pair_quadrature"
        )
    if arr[0] == 0:
        raise ZeroConstantTerm("B vanishes at 0, inside the disk")
    total = c0 * 2.0 * math.log(abs(arr[0]))
    if d == 0 or deg == 0:
        return total
    body = arr[: deg + 1]
    dlog = series_divide(body[1:] * np.arange(1, deg + 1), body, d - 1)
    return total + 2.0 * float(np.vdot(dlog / np.arange(1, d + 1), cm).real)


# ---------------------------------------------------------------------------
# Quadrature route
# ---------------------------------------------------------------------------

# QUADPACK qk21 (Piessens et al., 1983): the nonnegative nodes of the
# 21-point Kronrod rule on [-1, 1], descending, their Kronrod weights, and
# the weights of the embedded 10-point Gauss rule at the odd-numbered ones.
# Written out so that scipy need not load.
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


def _merge_windows(angles, halfwidth: float):
    """Merge windows around the given angles into disjoint circular clusters.

    Returns a list of ``(start, end, centers)`` with start < end and the
    cluster centers sorted ascending; intervals may extend beyond [0, 2pi)
    to represent wrap-around.
    """
    centers = np.sort(np.mod(np.asarray(angles, dtype=float), 2 * np.pi))
    clusters: list[list[float]] = [[centers[0]]]
    for c in centers[1:]:
        if c - halfwidth <= clusters[-1][-1] + halfwidth:
            clusters[-1].append(c)
        else:
            clusters.append([c])
    # wrap-around merge of the last cluster into the first
    if len(clusters) > 1 and clusters[0][0] + 2 * np.pi - halfwidth <= clusters[-1][-1] + halfwidth:
        first = [c + 2 * np.pi for c in clusters.pop(0)]
        clusters[-1].extend(first)
    out = []
    for group in clusters:
        out.append((group[0] - halfwidth, group[-1] + halfwidth, group))
    return out


def _window_pieces(start: float, end: float, centers, s_cuts):
    """One-sided substitution pieces for a merged window of singular angles.

    Each sub-arc between a center and the nearest breakpoint maps to the
    s-interval [-log span, s_cut] under t = center + sign * e^{-s}, with
    ``s_cuts`` the tail cut of each center.
    """
    pts = [start]
    for left, right in zip(centers[:-1], centers[1:]):
        pts.append(0.5 * (left + right))
    pts.append(end)
    pieces = []
    for i, (c, s_cut) in enumerate(zip(centers, s_cuts)):
        for edge, sign in ((pts[i], -1.0), (pts[i + 1], 1.0)):
            span = abs(edge - c)
            if span <= 0:
                continue
            s0 = -math.log(span)
            if s0 < s_cut:
                pieces.append((c, sign, s0, s_cut))
    return pieces


def _kronrod_panels(lo, hi, panels):
    """Kronrod nodes and half-widths on ``panels[i]`` equal panels of [lo[i], hi[i]].

    The panel edges of piece i are those of np.linspace(lo[i], hi[i],
    panels[i] + 1), rounding included: k * ((hi - lo) / panels) + lo, the
    last edge exactly hi.  One row per panel, piece by piece: the 21 nodes
    and the half-width.
    """
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
    return mids[:, None] + half[:, None] * _K21_NODES, half


def _kronrod_nodes(window_pieces, arc_pieces, levels):
    """Kronrod nodes (in t) and Jacobian weights of every panel of the pieces.

    Window pieces ``(center, sign, s0, s_cut)`` come first, then arc pieces
    ``(a, b, base panels)``; ``levels`` holds one doubling count per piece,
    in the same order.  Window pieces have max(2, ceil((s_cut - s0) / 2.5))
    base panels in s.  Returns the nodes and the weights dt/dx times the
    panel half-width, one row of 21 per panel, and the panel count of each
    piece.
    """
    c, sign, s0, s_cut = np.array(window_pieces, dtype=float).reshape(-1, 4).T
    a, b, p0 = np.array(arc_pieces, dtype=float).reshape(-1, 3).T
    panels = np.concatenate((np.maximum(2, np.ceil((s_cut - s0) / 2.5).astype(int)),
                             p0.astype(int))) << levels
    win_panels = panels[: c.size]
    s, half = _kronrod_panels(s0, s_cut, win_panels)
    u = np.exp(-s)
    piece = np.repeat(np.arange(c.size), win_panels)[:, None]
    t, arc_half = _kronrod_panels(a, b, panels[c.size:])
    return (np.concatenate((c[piece] + sign[piece] * u, t)),
            np.concatenate((half[:, None] * u,
                            np.broadcast_to(arc_half[:, None], t.shape))),
            panels)


def circle_quadrature(f, singular_angles=(), scale: float = 1.0,
                      s_cut_of=None) -> float:
    """Mean of a vectorized integrand f(t) over t in [0, 2pi).

    Around each singular angle a window of width ``_WINDOW`` is cut out and
    integrated under the substitution t = angle +/- e^{-s}, which resolves
    logarithmic singularities; the complement arcs are pieces of their own,
    and with no singular angles the whole circle is one arc.  Every piece is
    cut into equal panels, each integrated by the 21-point Gauss-Kronrod
    rule (QUADPACK qk21), and |K21 - G10|, its difference from the embedded
    10-point Gauss rule, estimates the panel's error.  Each round calls f
    once, on the panels of the pieces still refining.  The Kronrod sum is
    returned once the estimates of all pieces sum to at most the tolerance,
    ``_TOLERANCE`` * max(1, |scale|); until then, every piece whose estimate
    exceeds its share, tolerance / pieces, has its panels doubled.

    ``s_cut_of`` optionally shortens the substitution tail: called once with
    the array of window centers (an angle past 2pi where a window wraps
    around), it returns one cut per center, and the caller certifies the
    dropped mass.  Raises ``BudgetExceeded`` when a piece would need more
    than ``_MAX_DEPTH`` doublings.
    """
    tol = _TOLERANCE * max(1.0, abs(scale))
    angles = np.asarray(singular_angles, dtype=float)
    window_pieces = []
    arcs = [(0.0, 2 * np.pi)]
    if angles.size:
        # Deduplicate angle list; multiplicity lives inside the integrand.
        angles = np.sort(np.mod(angles, 2 * np.pi))
        keep = np.concatenate(([True], np.diff(angles) > 1e-12))
        if keep.sum() > 1 and (angles[keep][-1] - angles[keep][0]) >= 2 * np.pi - 1e-12:
            keep_idx = np.nonzero(keep)[0]
            keep[keep_idx[-1]] = False
        angles = angles[keep]

        clusters = _merge_windows(angles, _WINDOW / 2.0)
        if sum(end - start for start, end, _ in clusters) >= 2 * np.pi:
            raise ValueError(
                f"the windows of {angles.size} singular angles, {_WINDOW:g} wide "
                "each, cover the whole circle"
            )
        centers = np.array([c for _, _, group in clusters for c in group])
        if s_cut_of is None:
            s_cuts = [_S_CUT] * centers.size
        else:
            s_cuts = [min(_S_CUT, s) for s in s_cut_of(centers)]
        used = 0
        for start, end, group in clusters:
            cuts = s_cuts[used:used + len(group)]
            used += len(group)
            window_pieces.extend(_window_pieces(start, end, group, cuts))
        arcs = []
        for idx, (_, end, _) in enumerate(clusters):
            nxt_start = clusters[(idx + 1) % len(clusters)][0]
            if idx + 1 == len(clusters):
                nxt_start += 2 * np.pi
            if nxt_start - end > 1e-12:
                arcs.append((end, nxt_start))
    arc_pieces = [(a, b, max(1, int(math.ceil((b - a) / 0.15)))) for a, b in arcs]
    return _kronrod_sum(f, window_pieces, arc_pieces, tol, _MAX_DEPTH)[0]


def _kronrod_sum(f, window_pieces, arc_pieces, tol: float, max_depth: int):
    """The rounds of ``circle_quadrature``: (mean, error estimate).

    Each round evaluates f once, on every panel of the pieces still
    refining.  The weighted sums are numpy reductions, not np.dot: BLAS
    ddot rounds differently with the number of BLAS threads.
    """
    n_win = len(window_pieces)
    pieces = n_win + len(arc_pieces)
    bound = 2 * np.pi * tol  # value and est are integrals over [0, 2pi)
    levels = np.zeros(pieces, dtype=int)
    value = np.zeros(pieces)
    est = np.zeros(pieces)
    todo = np.arange(pieces)
    while True:
        pts, wts, panels = _kronrod_nodes(
            [window_pieces[i] for i in todo[todo < n_win]],
            [arc_pieces[i - n_win] for i in todo[todo >= n_win]],
            levels[todo])
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
        if levels[todo].max() > max_depth:
            raise BudgetExceeded(
                f"panel refinement did not reach {tol:.2e} within depth {max_depth}"
            )


def _log_distance_sum(t: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """sum_j log max(4 sin^2((t - angles_j)/2), _LOG_FLOOR) at every t.

    Evaluated on (angles x nodes) blocks of ``_BLOCK`` nodes in one reused
    buffer, so memory is O(len(angles) * _BLOCK) rather than
    O(len(angles) * len(t)).  Each block sums its rows in order, as one
    full matrix would.  A remainder shorter than a block joins the last
    block: numpy sums a one-column matrix pairwise, which rounds
    differently.
    """
    out = np.empty(t.size)
    buf = np.empty(angles.size * min(t.size, 2 * _BLOCK - 1))
    lo = 0
    while lo < t.size:
        hi = t.size if t.size - lo < 2 * _BLOCK else lo + _BLOCK
        d = buf[: angles.size * (hi - lo)].reshape(angles.size, hi - lo)
        np.subtract(t[None, lo:hi], angles[:, None], out=d)
        np.multiply(d, 0.5, out=d)
        np.sin(d, out=d)
        np.square(d, out=d)
        np.multiply(d, 4.0, out=d)
        np.maximum(d, _LOG_FLOOR, out=d)
        np.log(d, out=d)
        np.sum(d, axis=0, out=out[lo:hi])
        lo = hi
    return out


def _deflate_root(coeffs: np.ndarray, rho: complex) -> np.ndarray:
    """Quotient of a coefficient vector by (z - rho), remainder discarded."""
    rev = coeffs[::-1]
    out = np.empty(rev.size - 1, dtype=complex)
    acc = rev[0]
    for k in range(rev.size - 1):
        out[k] = acc
        acc = rev[k + 1] + rho * acc
    return out[::-1]


def log_pair_quadrature(A, B, b_roots=None) -> float:
    """Integral of |A|^2 log|B|^2 over dm by adaptive circle quadrature.

    Circle zeros of B are located (from ``b_roots`` when supplied, otherwise
    from the companion matrix without certification), deflated out of B, and
    their log factors evaluated through 2|sin((t - angle)/2)|, which stays
    accurate arbitrarily close to the singularity.  Windows around each
    circle zero, and around each zero less than ``_WINDOW`` off the circle,
    are integrated under the exponential substitution; the integrand follows
    x log x = 0 at common zeros of A and B.  With no such zero the whole
    circle is one arc piece of ``circle_quadrature``.
    """
    a_arr = as_coefficients(A)
    b_arr = as_coefficients(B)
    deg = poly_degree(b_arr)
    if deg < 0:
        raise ZeroPolynomial("log|B| undefined for the zero polynomial")
    body = b_arr[: deg + 1]
    if b_roots is None and deg > 0:
        roots = polished_roots(body)
    elif b_roots is not None:
        roots = np.asarray(b_roots, dtype=complex)
    else:
        roots = np.zeros(0, dtype=complex)

    deflated = body
    factor_angles: list[float] = []
    window_angles: list[float] = []
    for rho in roots:
        mod = abs(rho)
        if abs(mod - 1.0) <= TAU_SEP:
            tau = rho / mod
            deflated = _deflate_root(deflated, tau)
            factor_angles.append(float(np.angle(tau)))
            window_angles.append(float(np.angle(tau)))
        elif abs(mod - 1.0) < _WINDOW:
            window_angles.append(float(np.angle(rho)))

    factors = np.asarray(factor_angles)
    scale = float(np.sum(np.abs(a_arr) ** 2)) * max(
        1.0, 2.0 * abs(math.log(max(abs(body[deg]), 1e-300)))
    )

    def integrand(t):
        t = np.asarray(t, dtype=float)
        z = np.exp(1j * t)
        a2 = np.abs(eval_poly(a_arr, z)) ** 2
        b2 = np.abs(eval_poly(deflated, z)) ** 2
        logb = np.log(np.maximum(b2, _LOG_FLOOR))
        if factors.size:
            logb += _log_distance_sum(t, factors)
        return np.where(a2 > 0, a2 * logb, 0.0)

    # The substitution tail beyond u0 = e^{-S} contributes at most
    # |A|^2_near * u0 * |log|B|^2|_near; where A vanishes at the window
    # center this lets the tail stop far earlier than the generic cutoff.
    deg_a = poly_degree(a_arr)
    sum_a = float(np.sum(np.abs(a_arr)))
    budget = _TOLERANCE * max(1.0, scale) / (8.0 * max(1, len(window_angles)))

    def tail_cut(amp_root: float) -> float:
        s = 10.0
        while s < _S_CUT:
            u0 = math.exp(-s)
            amp = (amp_root + u0 * deg_a * sum_a) ** 2
            log_bound = 2.0 * deg * (s + 2.0) + 160.0
            if 2.0 * amp * u0 * log_bound <= budget:
                return s
            s += 3.0
        return _S_CUT

    def s_cut_of(centers: np.ndarray) -> list[float]:
        # Python floats and abs(): the scalar pow and hypot of the ladder
        # need not round like numpy's square and complex absolute.
        values = eval_poly(a_arr, np.exp(1j * centers))
        return [tail_cut(abs(complex(v))) for v in values]

    return circle_quadrature(integrand, window_angles, scale=scale,
                             s_cut_of=s_cut_of)


# ---------------------------------------------------------------------------
# Ratio functional (difference of the two logarithmic integrals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioFunctionalValue:
    """The difference functional together with its two constituent integrals.

    ``certificates`` records the evidence backing each term: the circle roots
    the entropy pairing used, and the degree range of the log series.
    """

    value: float
    entropy_integral: float
    jensen_integral: float
    routes: dict
    certificates: dict


def ratio_functional(p: CirclePoly) -> RatioFunctionalValue:
    """The polar-quotient functional of p, as a difference of integrals.

    The difference of int |p|^2 log|p|^2 dm and the Jensen term
    int |p|^2 log|q|^2 dm, q = p - (1/n)Dp, is -int |p|^2 log|h|^2 dm for
    h = q/p = (1/n) sum_tau 1/(1 - conj(tau) z) over the roots tau of p.
    The coefficients of h (``CirclePoly.h_series``, which the moments read
    too) and of the entropy pairing both come from the given roots, so
    nothing is root-found and no pointwise quotient is formed.  h has no
    zeros or poles in the open disk (Laguerre's theorem on polar
    derivatives puts the zeros of q in |z| >= 1), and its log coefficients
    through z^n are those of its degree-n truncation.
    Dividing the series by h rather than by q keeps the recurrence stable:
    1/h = 1 + q*/q has bounded coefficients, while those of 1/q grow when
    zeros of p cluster.  Raises ``IllConditioned`` above degree
    ``MAX_SERIES_DEGREE``.
    """
    n = p.degree
    a = p.coefficients
    ts = trig_square(a)
    entropy_integral = log_pair_spectral(ts, a, b_roots=p.roots)
    value = -log_pair_spectral(ts, p.h_series)
    return RatioFunctionalValue(
        value, entropy_integral, entropy_integral - value,
        {"entropy": "spectral", "jensen": "spectral"},
        {"entropy": {"kind": "circle_roots", "count": n},
         "jensen": {"kind": "log_series", "max_degree": MAX_SERIES_DEGREE}},
    )
