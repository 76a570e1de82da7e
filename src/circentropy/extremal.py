"""Minimization of the normalized entropy over zero angles on the circle,
and coalescence convergence experiments along root-perturbation schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blaschke_moments import moments
from .entropy import polar_term_via_moments
from .log_integrals import _circle_root_pairing, ratio_functional
from .polycircle import (
    CirclePoly,
    expand_from_roots,
    gamma_remainder,
    perturb_roots,
    polar_factor,
)


def objective(angles) -> float:
    """Entropy of the norm-normalized polynomial with zeros at the angles.

    For p = prod (z - e^{i theta}) and phat = p / sqrt(N(p)) this returns
    E(phat) = E(p)/N - log N, which is invariant under global scaling of p
    and under a uniform rotation of all angles, and is bounded below by
    1 - log 2.  Evaluated by the spectral route directly from the angles, so
    it stays well defined when angles collide.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    n = angles.size
    roots = np.exp(1j * angles)
    coeffs = expand_from_roots(roots, 1.0)
    norm = float((np.abs(coeffs) ** 2).sum())
    cm = np.array([np.vdot(coeffs[: n + 1 - k], coeffs[k:]) for k in range(1, n + 1)])
    entropy = _circle_root_pairing(roots, cm)
    return entropy / norm - math.log(norm)


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
        return {
            "n": self.n,
            "angles": [float(a) for a in self.angles],
            "achieved": self.achieved,
            "gap": self.gap,
            "angle_gap_deviation": self.angle_gap_deviation,
            "converged": self.converged,
            "restarts": self.restarts,
            "evaluations": self.evaluations,
            "min_objective_seen": self.min_objective_seen,
            "trace": self.trace,
        }


def angle_gap_deviation(angles) -> float:
    """Max deviation of sorted consecutive angle gaps from 2 pi / n."""
    angles = np.sort(np.mod(np.asarray(angles, dtype=float), 2 * np.pi))
    n = angles.size
    if n < 2:
        return 0.0
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    return float(np.max(np.abs(gaps - 2 * np.pi / n)))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _starts(n: int, restarts: int, rng) -> list[np.ndarray]:
    """Gauge-fixed starting angle sets: low-discrepancy plus uniform random."""
    out = []
    for k in range(restarts):
        if k % 2 == 0:
            offset = rng.random()
            pts = 2 * np.pi * np.mod(offset + _GOLDEN * np.arange(1, n), 1.0)
        else:
            pts = rng.uniform(0.0, 2 * np.pi, n - 1)
        out.append(pts)
    return out


def minimize(n: int, restarts: int = 8, seed: int = 0,
             max_evals: int = 10000) -> ExtremalResult:
    """Derivative-free search for the entropy minimum at degree n.

    Runs Nelder-Mead polytope descent on the n-1 free angles (the first
    angle is gauge-fixed at 0) from low-discrepancy and uniform random
    starts, deterministic under the seed, followed by a polish pass from the
    best point.  The result records the running minimum of every objective
    evaluation, which live-checks the lower bound across the whole search
    trajectory.
    """
    if n < 1 or restarts < 1:
        raise ValueError("need n >= 1 and restarts >= 1")
    state = {"count": 0, "min_seen": math.inf}

    def tracked(x) -> float:
        val = objective(np.concatenate([[0.0], np.atleast_1d(x)]))
        state["count"] += 1
        if val < state["min_seen"]:
            state["min_seen"] = val
        return val

    if n == 1:
        val = objective([0.0])
        state["min_seen"] = min(state["min_seen"], val)
        return ExtremalResult(
            n=1,
            angles=np.zeros(1),
            achieved=val,
            gap=val - (1.0 - math.log(2.0)),
            angle_gap_deviation=0.0,
            converged=True,
            restarts=0,
            evaluations=1,
            min_objective_seen=state["min_seen"],
            trace=[],
        )

    # Imported here: scipy.optimize is most of a cold ``import circentropy``,
    # and only the search needs it.
    from scipy.optimize import minimize as scipy_minimize

    rng = np.random.default_rng(seed)
    options = dict(xatol=1e-9, fatol=1e-12, maxfev=max_evals, maxiter=max_evals)
    best = None
    trace = []
    for k, x0 in enumerate(_starts(n, restarts, rng)):
        res = scipy_minimize(tracked, x0, method="Nelder-Mead", options=options)
        trace.append(
            {"restart": k, "fun": float(res.fun), "nfev": int(res.nfev),
             "converged": bool(res.success)}
        )
        if best is None or res.fun < best.fun:
            best = res
    # Nelder-Mead can stagnate with a degenerate simplex; one restart from
    # the incumbent reliably polishes the last digits.
    polish = scipy_minimize(tracked, best.x, method="Nelder-Mead", options=options)
    if polish.fun < best.fun:
        best = polish
    angles = np.mod(np.concatenate([[0.0], best.x]), 2 * np.pi)
    achieved = float(best.fun)
    return ExtremalResult(
        n=n,
        angles=angles,
        achieved=achieved,
        gap=achieved - (1.0 - math.log(2.0)),
        angle_gap_deviation=angle_gap_deviation(angles),
        converged=any(entry["converged"] for entry in trace),
        restarts=restarts,
        evaluations=state["count"],
        min_objective_seen=state["min_seen"],
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

    CSV_FIELDS = (
        "epsilon", "entropy", "jensen", "polar", "gamma", "moment_polar",
        "dev_entropy", "dev_jensen", "dev_polar", "dev_gamma", "dev_moment",
    )

    def to_csv_rows(self) -> list[list]:
        return [[getattr(row, f) for f in self.CSV_FIELDS] for row in self.rows]


def coalescence_experiment(p: CirclePoly, schedule, seed: int = 0) -> CoalescenceTable:
    """Track every functional along perturbed copies of p as epsilon -> 0.

    For each epsilon in the strictly decreasing schedule the roots of p are
    split into simple ones, and E, the Jensen term, the polar functional, the
    remainder sum, and the moment-formula value are compared against the
    values computed directly on p through the difference form (which is the
    limit of the simple-zero values).
    """
    schedule = [float(e) for e in schedule]
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(e <= 0 for e in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ValueError("schedule must be strictly decreasing and positive")

    rf = ratio_functional(p)
    limits = {
        "entropy": rf.entropy_integral,
        "jensen": rf.jensen_integral,
        "polar": rf.value,
        "gamma": gamma_remainder(p),
    }
    rows = []
    for eps in schedule:
        pe = perturb_roots(p, eps, seed=seed)
        rfe = ratio_functional(pe)
        gam = gamma_remainder(pe)
        seq = moments(polar_factor(pe))
        mom = polar_term_via_moments(seq)
        rows.append(
            CoalescenceRow(
                epsilon=eps,
                entropy=rfe.entropy_integral,
                jensen=rfe.jensen_integral,
                polar=rfe.value,
                gamma=gam,
                moment_polar=mom,
                dev_entropy=abs(rfe.entropy_integral - limits["entropy"]),
                dev_jensen=abs(rfe.jensen_integral - limits["jensen"]),
                dev_polar=abs(rfe.value - limits["polar"]),
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
