"""Polynomials with all zeros on the unit circle.

Construction from roots, the self-inversive normalization, the
polar-derivative factor q = p - (1/n)Dp with D = z d/dz, and the
coefficient functionals built on top of them.

Coefficient vectors are 1-d complex arrays ordered lowest degree first.
Roots are the primary data; coefficients are expanded once at construction
and cached on the value.  Construction and the functionals the verification
reads also take a stack: arrays with a leading instance axis, one row per
polynomial of a common degree (``stack``); a 1-d input is a stack of one.
Every reduction runs along the last axis, so a row's value does not depend
on the stack that carried it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    IllConditioned,
    InconsistentReflection,
    NonUnimodularRoot,
    NotSelfInversive,
    SeparationFailure,
    ZeroLeading,
)

# Package-wide tolerances.  All identities here are polynomial-degree-bounded
# with mild conditioning for n <= 64, so these sit an order of magnitude above
# accumulated double-precision rounding at that scale.
TAU_UNIMOD = 1e-12   # allowed deviation of |root| from 1 on input
TAU_EXPAND = 1e-10   # relative coefficient tolerance, against max |a_j|
TAU_SEP = 1e-8       # chordal separation deciding the simple-zero flag

# Most entries (rows x n^2) of one stack's n x n tables, the Leja
# log-distances here and the Toeplitz matrices of r in the verification:
# bounds the memory of a block to a few MiB whatever the instance count.
_STACK_ENTRIES = 1 << 16


def row_blocks(count: int, n: int) -> list[slice]:
    """Consecutive slices covering ``count`` rows of degree (or width) n, each
    of at most ``_STACK_ENTRIES / n^2`` rows, or of one row for n > 256."""
    rows = max(1, _STACK_ENTRIES // (n * n))
    return [slice(start, start + rows) for start in range(0, count, rows)]


def as_coefficient_stack(values) -> np.ndarray:
    """Coerce input to a complex array with coefficients along the last axis.

    A 2-d input is a stack, one coefficient vector per row; a 1-d input is
    a stack of one and keeps its shape.  A nonempty complex ndarray is
    returned as it is.
    """
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.shape[-1] == 0:
        raise ValueError("coefficients must form a nonempty sequence")
    return arr


def as_coefficients(values) -> np.ndarray:
    """Coerce input to a 1-d complex coefficient array, lowest degree first."""
    arr = as_coefficient_stack(values)
    if arr.ndim != 1:
        raise ValueError("coefficients must form a nonempty 1-d sequence")
    return arr


def power_sums(roots, count: int) -> np.ndarray:
    """The power sums sum_tau tau^m, m = 1..count, per row of a stack of roots.

    Every power of every root is formed, then summed over the roots.
    """
    roots = np.asarray(roots, dtype=complex)
    return np.add.reduce(roots[..., :, None] ** np.arange(1, count + 1), axis=-2)


def unstacked(value):
    """A result without an instance axis as a Python scalar, a stacked one as is."""
    return value if value.ndim else value.item()


def poly_degree(coeffs) -> int:
    """Index of the highest nonzero coefficient, -1 for the zero polynomial.

    For a stack, the highest degree among its rows, and -1 when some row is
    the zero polynomial.
    """
    arr = as_coefficient_stack(coeffs)
    if arr.ndim > 1:
        nonzero = arr != 0
        if not nonzero.any(axis=-1).all():
            return -1
        arr = nonzero.reshape(-1, arr.shape[-1]).any(axis=0)
    nz = np.nonzero(arr)[0]
    return int(nz[-1]) if nz.size else -1


def eval_poly(coeffs, z):
    """Evaluate a coefficient vector at scalar or array arguments (Horner).

    Each step is ``acc * z + c``, in place on the accumulator when it has
    more than one point.  numpy multiplies a lone complex in place by a
    plain scalar loop, not the vector loop ``acc * z`` takes, and the two
    round differently; so a scalar or a one-point argument takes a new
    product each step.
    """
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in as_coefficients(coeffs)[::-1]:
        acc = np.multiply(acc, z, out=acc if acc.size > 1 else None)
        acc += c
    return acc[()]


def _leja_order(roots: np.ndarray) -> np.ndarray:
    """Indices ordering the roots so successive partial products stay small.

    Greedy Leja ordering: each next root maximizes the product of distances
    to the ones already taken.  Without it, expanding structured root sets
    (e.g. roots of unity in angle order) grows intermediate coefficients
    exponentially and loses ~6 digits by degree 32.

    Ties go to the lowest index: the first root is the first of largest
    modulus, and each next one the first untaken root with the largest sum
    of log-distances.  Once only repeats of taken roots remain (every sum is
    -inf), they are taken in index order, so the result is a permutation.
    The matrix log|r_i - r_j| is built once, so time and memory are O(m^2).
    It takes a stack of root lists (K, m), ``roots[None]`` for one list, and
    gives each row the order it gets alone; the rows take their steps
    together, in the blocks of ``row_blocks``.
    """
    m = roots.shape[-1]
    if m < 3:
        return np.broadcast_to(np.arange(m), roots.shape)
    blocks = row_blocks(len(roots), m)
    if len(blocks) > 1:
        return np.concatenate([_leja_order(roots[block]) for block in blocks])
    with np.errstate(divide="ignore"):
        logdist = np.log(np.abs(roots[:, None, :] - roots[:, :, None]))
    # order[k] holds step k's pick for every row.  The stack reads its rows
    # of log-distances from the (K m, m) table at base + index.
    order = np.empty((m, len(roots)), dtype=np.intp)
    logdist = logdist.reshape(-1, m)
    base = np.arange(0, logdist.shape[0], m)
    idx = order[0] = np.abs(roots).argmax(-1)
    # Each added row is -inf on its own diagonal, so a taken root drops out
    # of every later argmax.
    total = logdist[base + idx].copy()
    for k in range(1, m):
        idx = order[k] = total.argmax(-1)
        total += logdist[base + idx]
    # Once every sum is -inf, each later step's argmax is index 0.  From its
    # second 0 on, such a row takes its untaken roots in index order.
    for row in np.flatnonzero(idx == 0).tolist():
        picks = order[:, row].tolist()
        if picks.count(0) > 1:
            second = picks.index(0, picks.index(0) + 1)
            taken = set(picks[:second])
            order[second:, row] = [i for i in range(m) if i not in taken]
    return order.T


def expand_from_roots(roots, leading) -> np.ndarray:
    """Coefficients of ``leading * prod(z - root)``, lowest degree first.

    A stack of root lists (K, m) with K leading factors gives K coefficient
    rows: each row is Leja-ordered as it is alone, and each step multiplies
    one factor per row into the whole stack.  A row gets the bits it gets
    alone.  One root list is expanded as a stack of one.
    """
    roots = np.asarray(roots, dtype=complex)
    rows = roots if roots.ndim > 1 else roots.reshape(1, -1)
    m = rows.shape[-1]
    coeffs = np.zeros((len(rows), m + 1), dtype=complex)
    coeffs[:, m] = leading
    taus = rows[np.arange(len(rows))[:, None], _leja_order(rows)]
    # After k factors the product fills coeffs[:, m - k:]; the next factors
    # (z - tau), one column of them, shape (K, 1), extend it by one slot at
    # the low end.
    for k, tau in enumerate(taus.T[:, :, None]):
        coeffs[:, m - k - 1 : m] -= tau * coeffs[:, m - k :]
    return coeffs if roots.ndim > 1 else coeffs[0]


def root_clusters(roots, tol: float):
    """Group roots whose pairwise chordal distance is within ``tol``.

    Returns a list of ``(center, multiplicity)`` pairs with the center
    projected back onto the unit circle.  Intended for certified root lists
    of circle polynomials, where clusters are genuine multiplicities.
    """
    roots = np.asarray(roots, dtype=complex)
    order = np.argsort(np.angle(roots))
    clusters: list[list[complex]] = []
    for idx in order:
        tau = complex(roots[idx])
        if clusters and abs(tau - clusters[-1][-1]) <= tol:
            clusters[-1].append(tau)
        else:
            clusters.append([tau])
    # The sweep is linear in angle, so the first and last cluster can wrap
    # around the branch cut.
    if len(clusters) > 1 and abs(clusters[0][0] - clusters[-1][-1]) <= tol:
        clusters[0] = clusters.pop() + clusters[0]
    out = []
    for group in clusters:
        center = np.mean(group)
        center /= abs(center)
        out.append((complex(center), len(group)))
    return out


@dataclass(frozen=True)
class CirclePoly:
    """A degree-n polynomial with every zero on the unit circle.

    Two fields: ``coefficients`` a_0..a_n, and certified ``roots``
    tau_1..tau_n with |tau| = 1.  The ``degree`` n >= 1 and the ``leading``
    factor a = a_n != 0 are read from them.  A stack of K polynomials of one
    degree (``stack``) holds the same fields with a leading instance axis:
    coefficients (K, n + 1) and roots (K, n), so leading is (K,); ``p[i]``
    is its row i.  Values are immutable and safe to share between threads.
    """

    coefficients: np.ndarray
    roots: np.ndarray

    def __post_init__(self):
        self.coefficients.setflags(write=False)
        self.roots.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.roots.shape[-1]

    @property
    def leading(self):
        return unstacked(self.coefficients[..., -1])

    @cached_property
    def h_series(self) -> np.ndarray:
        """Coefficients h_0..h_n of h = q/p = (1/n) sum_tau 1/(1 - conj(tau) z).

        q = p - (1/n)Dp is the polar factor, so h depends on the roots alone:
        h_k = (1/n) sum_tau conj(tau)^k, and h_0 = n/n = 1 exactly.  The
        Jensen term pairs against log h, and the Blaschke quotient is
        q*/q = 1/h - 1.  Computed once per polynomial, on first use.
        """
        n = self.degree
        sums = power_sums(np.conj(self.roots), n)
        h = np.empty(sums.shape[:-1] + (n + 1,), dtype=complex)
        h[..., 0] = n
        h[..., 1:] = sums
        h /= n
        h.setflags(write=False)
        return h

    @cached_property
    def h_quotients(self) -> np.ndarray:
        """Taylor coefficients of h'/h and 1/h through degree n - 1, in two rows.

        One division of the numerator rows [k h_k] (k = 1..n) and [1] by h
        (``h_series``), one recurrence step per degree for both rows and
        every row of a stack: (2, n) for one polynomial, (K, 2, n) for a
        stack.  The Jensen term pairs against h'/h (``ratio_functional``),
        and the Blaschke quotient is 1/h - 1 (``moments``).  Through degree
        n - 1 the recurrence reads h_1..h_{n-1} only, so it needs no degree
        of h.  Computed once per polynomial, on first use.
        """
        # Imported here: blaschke_moments imports this module.
        from .blaschke_moments import series_divide

        n = self.degree
        h = self.h_series
        num = np.zeros(h.shape[:-1] + (2, n), dtype=complex)
        num[..., 0, :] = h[..., 1:] * np.arange(1, n + 1)
        num[..., 1, 0] = 1.0
        out = series_divide(num, h[..., None, :], n - 1)
        out.setflags(write=False)
        return out

    def scaled(self, factor) -> "CirclePoly":
        """The polynomial multiplied by a nonzero constant, one per row of a stack."""
        factor = np.asarray(factor, dtype=complex)
        if np.count_nonzero(factor) < factor.size:
            raise ZeroLeading("scaling factor must be nonzero")
        return CirclePoly(factor[..., None] * self.coefficients, self.roots.copy())

    def __getitem__(self, index) -> "CirclePoly":
        """Row ``index`` of a stack as one polynomial; a slice of rows as a stack."""
        return CirclePoly(self.coefficients[index], self.roots[index])


def stack(polys) -> CirclePoly:
    """Circle polynomials of one degree as one CirclePoly with an instance axis."""
    polys = list(polys)
    n = polys[0].degree
    if any(p.degree != n for p in polys):
        raise ValueError("a stack holds polynomials of one degree")
    return CirclePoly(np.stack([p.coefficients for p in polys]),
                      np.stack([p.roots for p in polys]))


def from_roots(roots, leading=1.0) -> CirclePoly:
    """Build a CirclePoly from unimodular roots and a nonzero leading factor.

    A stack of root lists (K, n) with K leading factors builds a stack.  A
    leading factor that is zero or not finite raises ``ZeroLeading``.
    Roots are projected exactly onto the circle by dividing by their modulus;
    a root in any row whose modulus deviates from 1 by more than
    ``TAU_UNIMOD``, or is not finite, raises ``NonUnimodularRoot``.
    """
    roots = np.atleast_1d(np.asarray(roots, dtype=complex))
    if roots.shape[-1] == 0:
        raise ValueError("a CirclePoly needs at least one root (degree >= 1)")
    leading = np.full(roots.shape[:-1], leading, dtype=complex)
    if not np.isfinite(leading).all() or np.count_nonzero(leading) < leading.size:
        raise ZeroLeading("leading coefficient must be finite and nonzero")
    mods = np.abs(roots)
    worst = np.abs(mods - 1.0).max(initial=0.0)
    if not worst <= TAU_UNIMOD:  # also rejects NaN and infinite roots
        raise NonUnimodularRoot(
            f"root modulus deviates from 1 by {worst:.3e} (> {TAU_UNIMOD:.0e})"
        )
    roots = roots / mods
    return CirclePoly(expand_from_roots(roots, leading), roots)


def from_angles(angles, leading=1.0) -> CirclePoly:
    """Build a CirclePoly with roots ``exp(i * angle)``, or a stack of them.

    The first angle in C order that is not finite raises ``NonUnimodularRoot``.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    bad = ~np.isfinite(angles)
    if bad.any():
        raise NonUnimodularRoot(
            f"root angles must be finite, got {float(angles[bad][0])!r}")
    return from_roots(np.exp(1j * angles), leading)


def normalize_self_inversive(p: CirclePoly) -> CirclePoly:
    """The self-inversive eta * p, with one unimodular eta per row of a stack.

    The reflection of a_0..a_n is conj(a_{n-j}), j = 0..n.  On a circle
    polynomial it is lambda * p, lambda unimodular (taken by least squares),
    and eta^2 = lambda: eta is the square root with Re eta > 0, or with
    Im eta > 0 when Re eta = 0, so the one nearest 1.  Raises
    ``InconsistentReflection`` when p is no such multiple (roots off the
    circle), and ``IllConditioned`` when the squared coefficients overflow,
    or underflow so far that <p, refl> is 0 or lambda / |lambda| not finite.
    """
    arr = p.coefficients
    refl = np.conj(arr[..., ::-1])
    # <p, refl> / <p, p>, normalized: the positive <p, p> drops out.
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (np.conj(arr) * refl).sum(axis=-1)
    mod = np.abs(lam)
    if not np.isfinite(mod).all():
        raise IllConditioned("the squared coefficients overflow a double")
    if not mod.all():
        # Where even the largest |a_j|^2 underflows, so does <p, refl>.
        if (np.abs(arr[mod == 0]).max(axis=-1) ** 2 == 0).any():
            raise IllConditioned("the squared coefficients underflow a double")
        raise InconsistentReflection("reflection is orthogonal to the input")
    with np.errstate(over="ignore", invalid="ignore"):
        lam = lam / mod
    if not np.isfinite(lam).all():
        raise IllConditioned("the squared coefficients underflow a double")
    scale = np.abs(arr).max(axis=-1)
    resid = np.abs(refl - lam[..., None] * arr).max(axis=-1)
    if not (resid <= TAU_EXPAND * scale).all():  # also rejects NaN
        raise InconsistentReflection(
            f"reflection residual {np.max(resid / scale):.3e} exceeds "
            f"{TAU_EXPAND:.0e}; roots are off the circle"
        )
    eta = np.sqrt(lam)
    flip = (eta.real < 0) | ((eta.real == 0) & (eta.imag < 0))
    return p.scaled(np.where(flip, -eta, eta))


@dataclass(frozen=True)
class PolarDecomposition:
    """The polar factor pair (q, q*) of a self-inversive polynomial.

    q = p - (1/n)Dp has degree <= n-1 and q_j = ((n-j)/n) a_j; the reflection
    q* = (1/n)Dp has vanishing constant term and qstar_j = (j/n) a_j, so that
    p = q + q* coefficientwise.  For a stack, q, qstar and ``simple_zeros``
    have one row per instance.
    """

    parent: CirclePoly
    q: np.ndarray
    qstar: np.ndarray
    simple_zeros: bool

    def __post_init__(self):
        self.q.setflags(write=False)
        self.qstar.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.parent.degree


def has_simple_zeros(roots):
    """Whether all pairwise chordal root distances exceed ``TAU_SEP``.

    One flag per row of a stack of root lists.
    """
    return unstacked(_min_chord(roots) > TAU_SEP)


def _min_chord(roots):
    """The least distance between two roots, per row of a stack; inf for one root."""
    roots = np.asarray(roots, dtype=complex)
    m = roots.shape[-1]
    diffs = np.abs(roots[..., :, None] - roots[..., None, :]).reshape(
        roots.shape[:-1] + (m * m,))
    diffs[..., :: m + 1] = np.inf  # the diagonal
    return diffs.min(axis=-1)


@lru_cache(maxsize=128)
def _polar_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights (n - j)/n, j < n, of q and j/n, j <= n, of q*, read-only."""
    j = np.arange(n + 1, dtype=float)
    weights = ((n - j[:n]) / n, j / n)
    for w in weights:
        w.setflags(write=False)
    return weights


def polar_factor(p: CirclePoly) -> PolarDecomposition:
    """Polar decomposition of a self-inversive CirclePoly, or of a stack.

    Raises ``NotSelfInversive`` when the reflection of p deviates from p by
    more than ``TAU_EXPAND`` relative to the coefficient scale.
    """
    n = p.degree
    a = p.coefficients
    scale = np.abs(a).max(axis=-1)
    dev = np.abs(np.conj(a[..., ::-1]) - a).max(axis=-1)
    if not (dev <= TAU_EXPAND * scale).all():  # also rejects NaN
        raise NotSelfInversive(
            f"reflection deviates by {np.max(dev / scale):.3e} relative "
            f"(> {TAU_EXPAND:.0e})"
        )
    q_weights, qstar_weights = _polar_weights(n)
    q = q_weights * a[..., :n]
    qstar = qstar_weights * a
    return PolarDecomposition(p, q, qstar, has_simple_zeros(p.roots))


def parseval_norm(p):
    """Squared L2 norm on the circle, computed as sum |a_j|^2.

    ``p`` is a CirclePoly or coefficients; a stack gives one norm per row.
    """
    coeffs = p.coefficients if isinstance(p, CirclePoly) else as_coefficient_stack(p)
    return unstacked((np.abs(coeffs) ** 2).sum(axis=-1))


@lru_cache(maxsize=128)
def _gamma_weights(n: int) -> np.ndarray:
    """The weights j(n - j)/n^2, j = 1..n-1, of ``gamma_remainder``, read-only."""
    j = np.arange(1, n, dtype=float)
    weights = j * (n - j) / n**2
    weights.setflags(write=False)
    return weights


def gamma_remainder(p: CirclePoly):
    """The remainder coefficient sum: sum_{j=1}^{n-1} j(n-j)/n^2 |a_j|^2.

    Vanishes exactly on binomials a_0 + a_n z^n; empty (zero) for n = 1.
    One sum per row of a stack.
    """
    n = p.degree
    mid = p.coefficients[..., 1:n]
    return unstacked((_gamma_weights(n) * np.abs(mid) ** 2).sum(axis=-1))


def weighted_form_Sn(g, n: int) -> float:
    """The weighted quadratic form sum_{j=1}^{n-1} ((n-j)/j) |g_j|^2.

    Ignores g_0 and all g_j with j >= n.  Requires n >= 2.
    """
    if n < 2:
        raise ValueError("the weighted form needs n >= 2")
    arr = as_coefficients(g)
    j_top = min(n - 1, arr.size - 1)
    if j_top < 1:
        return 0.0
    j = np.arange(1, j_top + 1, dtype=float)
    return float(np.sum((n - j) / j * np.abs(arr[1 : j_top + 1]) ** 2))


def partial_energy_Al(g, l: int) -> float:
    """Partial coefficient energy sum_{j=0}^{l} |g_j|^2 (nondecreasing in l)."""
    if l < 0:
        raise ValueError("partial energy index must be >= 0")
    arr = as_coefficients(g)
    return float(np.sum(np.abs(arr[: l + 1]) ** 2))


def perturb_roots(p: CirclePoly, epsilon: float) -> CirclePoly:
    """Split the roots of a self-inversive p into pairwise distinct ones.

    Root j is rotated by epsilon * j / n (magnitudes <= epsilon), and the
    result is renormalized by ``normalize_self_inversive``, whose eta is the
    square root nearest 1, so the output converges to p coefficientwise as
    epsilon -> 0.  Falls back to jitter seeded with 0, so equal inputs give
    equal bits, if the deterministic schedule produces a collision, and
    raises ``SeparationFailure`` when eight tries collide.  That happens once
    the rotations fall below the rounding of the roots, about 2^-53: the
    zeros at angles 0.7, 0.7 and 2.0 fail at epsilon = 2^-54.  An epsilon
    that is not finite and positive raises ValueError.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    n = p.degree
    rng = np.random.default_rng(0)
    offsets = epsilon * np.arange(1, n + 1) / n
    for _ in range(8):
        rotated = p.roots * np.exp(1j * offsets)
        if _min_chord(rotated) > 0:
            break
        offsets = epsilon * (np.arange(1, n + 1) - 0.5 * rng.random(n)) / n
    else:
        raise SeparationFailure(
            f"could not separate roots at epsilon={epsilon:.3e}"
        )
    return normalize_self_inversive(
        CirclePoly(expand_from_roots(rotated, p.leading), rotated))


def coefficients_from_json(data) -> np.ndarray:
    """Coefficient vector from JSON [re, im] pairs, lowest degree first."""
    return np.array([complex(re, im) for re, im in data], dtype=complex)
