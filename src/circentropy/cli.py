"""Command-line entry point for reproducible verification runs.

Commands: verify, suite, fourier-h, search, coalesce, moments, telescoping.
Polynomials are given either as JSON coefficient arrays of [re, im] pairs
(lowest degree first), as JSON arrays of root angles in radians, or through
the binomial shorthand ``--binomial n=6 omega=1``.  Identical configuration
yields byte-identical payloads.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import re
import sys
from itertools import compress, islice, repeat

import numpy as np

from .blaschke_moments import moments
from .corpus import instance_rng, random_circle_stack
from .entropy import (
    h_fourier,
    h_fourier_quadrature,
    telescoping_closed_form,
    telescoping_sums,
    verify_columns,
    verify_main,
)
from .errors import CircEntropyError, NonUnimodularRoot, RootsOffCircle
from .extremal import checked_schedule, coalescence_experiment, minimize
from .log_integrals import check_degree
from .polycircle import (
    CirclePoly,
    coefficients_from_json,
    eval_poly,
    from_angles,
    from_roots,
    normalize_self_inversive,
    polar_factor,
    poly_degree,
)

INPUT_ROOT_TOL = 1e-6   # circle membership tolerance for coefficient input
_FIT_STEPS = 8          # Gauss-Newton steps of a root fit to coefficient input
MULTIPLE_FRAC = 0.1     # share of each degree's suite instances with a multiple zero
# Size budgets: the largest value each size flag takes.  Time and memory grow
# with the value; README ("Supported degrees") gives the cost at each cap.
MAX_SUITE_COUNT = 10_000         # suite --count: instances per degree
MAX_FOURIER_K = 1_000            # fourier-h --max-k: one quadrature per k
MAX_TELESCOPING_N = 1_000_000    # telescoping --max-n: one Fraction sum per n
MAX_PRECISION_BITS = 4_096       # verify --precision: mantissa bits of the mpmath rerun


def _parse_complex(text: str) -> complex:
    # An i between no other letters is the imaginary unit j; the i of inf is not.
    return complex(re.sub(r"(?<![a-z])i(?![a-z])", "j", text))


def _binomial_poly(tokens: list[str]) -> CirclePoly:
    params = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(
                f"binomial parameters look like n=6 omega=1, got {token!r}"
            )
        key, value = token.split("=", 1)
        params[key.strip()] = value.strip()
    unknown = set(params) - {"n", "omega", "leading"}
    if unknown:
        raise ValueError(f"unknown binomial parameters: {sorted(unknown)}")
    n = int(params.get("n", "1"))
    check_degree(n)
    omega = _parse_complex(params.get("omega", "1"))
    if omega == 0:
        raise ValueError("omega must be unimodular, got 0")
    if not np.isfinite(omega):
        # inf/inf would give NaN root angles, blamed on a root
        raise NonUnimodularRoot(f"omega must be finite, got {params['omega']!r}")
    omega /= abs(omega)
    leading = _parse_complex(params.get("leading", "1"))
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    return from_angles(angles, leading)


def _newton_step(body: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The roots of B = body, each moved by one Newton step where the step is
    finite and shorter than a tenth of 1 + |root|."""
    dcoeffs = body[1:] * np.arange(1, body.size)
    bv = eval_poly(body, roots)
    dv = eval_poly(dcoeffs, roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(dv != 0, bv / dv, 0.0)
    ok = np.isfinite(step) & (np.abs(step) < 0.1 * (1.0 + np.abs(roots)))
    return roots - np.where(ok, step, 0.0)


def _poly_from_coefficients(coeffs: np.ndarray) -> CirclePoly:
    """Recover a CirclePoly from raw coefficients, or raise RootsOffCircle.

    The companion roots are grouped into zeros (``_zero_clusters``).  An
    m-fold zero leaves them as an m-gon of radius about eps^(1/m), which a
    Newton step only scatters, but fitted with its multiplicity
    (``_refitted_roots``) it is well conditioned.  The candidates are that
    fit, then the groups' centroids, then the fits that split a group (the
    one nearest the coefficients); the first whose roots lie within
    ``INPUT_ROOT_TOL`` of the circle and re-expand to the input is taken.
    With none, the centroids' failure is raised.  A coefficient that is not
    finite is refused before any eigensolve.
    """
    if not np.isfinite(coeffs).all():
        raise RootsOffCircle("input coefficients must be finite")
    deg = poly_degree(coeffs)
    if deg < 1:
        raise RootsOffCircle("input polynomial must have degree >= 1")
    check_degree(deg)
    body = coeffs[: deg + 1]
    companion = np.roots(body[::-1])
    roots = _newton_step(body, companion)
    groups = list(_zero_clusters(companion, roots))
    for group in groups:
        roots[group] = companion[group].mean()
    fits = _refitted_roots(body, roots, companion, groups)
    for fitted in islice(fits, 1):
        with contextlib.suppress(RootsOffCircle):
            return _circle_poly_from_roots(body, fitted)
    try:
        return _circle_poly_from_roots(body, roots)
    except RootsOffCircle as failure:
        splits = []
        for fitted in fits:
            with contextlib.suppress(RootsOffCircle):
                splits.append(_circle_poly_from_roots(body, fitted))
        if not splits:
            raise failure
        return min(splits, key=lambda p: np.abs(p.coefficients - body).max())


def _circle_poly_from_roots(body: np.ndarray, roots: np.ndarray) -> CirclePoly:
    """The CirclePoly of the roots, in order of angle and projected onto the
    circle, if each is within ``INPUT_ROOT_TOL`` of it and their
    re-expansion reproduces ``body``; RootsOffCircle otherwise."""
    off = np.abs(np.abs(roots) - 1.0).max()
    if off > INPUT_ROOT_TOL:
        raise RootsOffCircle(f"a root sits {off:.3e} away from the unit circle "
                             f"(> {INPUT_ROOT_TOL:.0e})")
    p = from_roots([tau / abs(tau) for tau in roots[np.argsort(np.angle(roots))]],
                   body[-1])
    if np.max(np.abs(p.coefficients - body)) > INPUT_ROOT_TOL * np.max(np.abs(body)):
        raise RootsOffCircle(
            "re-expansion from circle roots does not reproduce the input coefficients"
        )
    return p


def _zero_clusters(companion: np.ndarray, polished: np.ndarray):
    """The groups of companion roots that stand for one zero, as boolean masks.

    Two roots are linked when their distance is at most three times the
    larger of their distances from the circle (a vertex of an m-gon of
    radius rho around a point of the circle lies 2 rho sin(pi/m) from a
    neighbour, and one of the two at least rho sin(pi/m) off the circle);
    when their Newton steps ``polished`` end within ``INPUT_ROOT_TOL`` of
    each other; or when both lie more than ``INPUT_ROOT_TOL`` off the circle
    and their midpoint within it, as a double zero's may, parted along the
    circle.  A group is a set of two or more roots joined by links.
    """
    off = np.abs(np.abs(companion) - 1.0)
    far = off > INPUT_ROOT_TOL
    midpoint_on = np.abs(np.abs(companion[:, None] + companion) / 2 - 1.0) <= INPUT_ROOT_TOL
    link = ((np.abs(companion[:, None] - companion) <= 3.0 * np.maximum(off[:, None], off))
            | (np.abs(polished[:, None] - polished) <= INPUT_ROOT_TOL)
            | (far[:, None] & far & midpoint_on))
    taken = np.zeros(companion.size, dtype=bool)
    for seed in np.flatnonzero(link.sum(axis=1) > 1):
        if taken[seed]:
            continue
        group = link[seed]
        while (grown := link[group].any(axis=0)).sum() > group.sum():
            group = grown
        taken |= group
        yield group


def _refitted_roots(body, roots, companion, groups):
    """Root lists fitted to ``body`` (``_fitted_roots``), for
    ``_poly_from_coefficients`` to check; none without a group
    (``_zero_clusters``).

    The roots of an m-fold zero and the simple zeros near it are all
    ill-conditioned: a simple zero 0.02 from a 6-fold one moves about 1e-4
    under rounding of the coefficients, and the centroid of the 6-gon about
    1e-5.  Fitted with their multiplicities, they are well conditioned.
    The first fit keeps each group as one zero at its centroid.  Then a
    group that holds simple zeros too is split: with L the monic
    polynomial of its k companion roots, an m-fold zero of L is a zero of
    L^(m-1), and L divided by its m-th power has the others.  For m = k - 1
    down to 2, each such split whose zeros all lie nearer the circle than
    every root of the group starts a fit.
    """
    if not groups:
        return
    free = ~np.any(groups, axis=0)
    zeros = [(r, 1) for r in roots[free]] + [(roots[g][0], int(g.sum())) for g in groups]
    yield _fitted_roots(body, zeros)
    for j, group in enumerate(groups, start=int(free.sum())):
        center, k = zeros[j]
        local = np.poly(companion[group] - center)
        nearest = np.abs(np.abs(companion[group]) - 1.0).min()
        for m in range(k - 1, 1, -1):
            for y in np.roots(np.polyder(local, m - 1)):
                if abs(abs(center + y) - 1.0) >= nearest:
                    continue
                rest = center + np.roots(np.polydiv(local, np.poly(np.full(m, y)))[0])
                if np.abs(np.abs(rest) - 1.0).max() < nearest:
                    split = [(center + y, m)] + [(x, 1) for x in rest]
                    yield _fitted_roots(body, zeros[:j] + split + zeros[j + 1:])


def _fitted_roots(body, zeros) -> np.ndarray:
    """The roots of lead prod (z - c)^m, over the distinct zeros (c, m), whose
    coefficients best fit ``body``: Gauss-Newton on the c from ``zeros``."""
    centers = np.array([c for c, _ in zeros], dtype=complex)
    mults = np.array([m for _, m in zeros])
    quotients = np.empty((centers.size, body.size - 1), dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(_FIT_STEPS):
            fit = body[-1] * np.poly(np.repeat(centers, mults))
            # d fit / dc = -m fit / (z - c), by synthetic division for every c
            acc = np.zeros(centers.size, dtype=complex)
            for k in range(body.size - 1):
                acc = acc * centers + fit[k]
                quotients[:, k] = acc
            jac = (-mults[:, None] * quotients)[:, ::-1].T
            if not np.isfinite(jac).all():  # a center ran off to overflow
                break
            centers += np.linalg.lstsq(jac, (body - fit[::-1])[:-1], rcond=None)[0]
    return np.repeat(centers, mults)


def _add_poly_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--angles", help="JSON array of root angles in radians")
    group.add_argument(
        "--coeffs",
        help="JSON array of [re, im] coefficient pairs, lowest degree first",
    )
    group.add_argument(
        "--binomial", nargs="+", metavar="KEY=VALUE",
        help="binomial family shorthand, e.g. --binomial n=6 omega=1",
    )
    parser.add_argument("--leading", help="leading coefficient for --angles input")


def _parse_poly(args) -> CirclePoly:
    """The polynomial given on the command line.

    Text that does not parse raises ValueError or TypeError, which the
    caller's ``_usage`` block makes a usage error (exit 2); a parsed
    polynomial that is not a circle polynomial raises a CircEntropyError
    (exit 3).  ``main`` maps both.
    """
    if args.leading is not None and args.angles is None:
        raise ValueError("--leading is for --angles; a binomial takes leading=")
    if args.binomial is not None:
        return _binomial_poly(args.binomial)
    if args.angles is not None:
        angles = json.loads(args.angles)
        if not isinstance(angles, list) or not all(
                isinstance(a, (int, float)) and not isinstance(a, bool)
                for a in angles):
            raise ValueError(f"--angles must be a JSON array of real numbers, "
                             f"got {args.angles!r}")
        check_degree(len(angles))
        leading = "1" if args.leading is None else args.leading
        return from_angles(angles, _parse_complex(leading))
    coeffs = coefficients_from_json(json.loads(args.coeffs))
    return _poly_from_coefficients(coeffs)


class _UsageError(Exception):
    """A command line that does not parse, or an ``--out`` path that cannot
    be written (exit 2, in ``main``)."""


@contextlib.contextmanager
def _usage():
    """Re-raise a TypeError or ValueError from the block as a usage error
    (exit 2, in ``main``)."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise _UsageError(exc) from exc


class _OutFile:
    """A text file written at an ``--out`` path; its OSErrors are usage errors."""

    def __init__(self, path: str):
        self.path = path
        self._fh = self._call(open, path, "w")

    def _call(self, func, *args):
        try:
            return func(*args)
        except OSError as exc:
            raise _UsageError(f"cannot write {self.path!r}: "
                              f"{exc.strerror or exc}") from exc

    def write(self, text: str) -> None:
        self._call(self._fh.write, text)

    def close(self) -> None:
        self._call(self._fh.close)


def _write(path: str, payload: str) -> None:
    with contextlib.closing(_OutFile(path)) as out:
        out.write(payload)


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, payload)
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")


def _csv_payload(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_verify(args) -> int:
    with _usage():
        # A rerun checks in extended precision: at least a double's 53 bits.
        if args.precision != "double" and not (
                args.precision.isdecimal() and int(args.precision) >= 53):
            raise ValueError(f"--precision must be 'double' or a bit count of "
                             f"at least 53, got {args.precision!r}")
        if args.precision != "double":
            _check_size("--precision", int(args.precision), MAX_PRECISION_BITS)
        p = _parse_poly(args)
    report = verify_main(p)
    data = report.to_dict()
    if args.precision != "double":
        from . import highprec  # mpmath loads only for a --precision rerun

        data["highprec"] = highprec.entropy_report_mp(p, bits=int(args.precision))
    _emit(json.dumps(data, indent=2), args.out)
    return 0 if report.status == "ok" else 1


# After n and index, each column is the ``verify_columns`` column, and so the
# EntropyReport field, of that name.
SUITE_HEADER = [
    "n", "index", "norm", "entropy", "jensen_term", "polar_term", "gamma",
    "main_gap", "strengthened_gap", "jensen_gap", "polar_gap",
    "moment_polar_resid", "moment_norm_resid", "ratio_series_resid",
    "moment_bound_slack_min", "simple_zeros", "extremal", "status",
]


def _parse_degree_range(spec: str) -> tuple[range | list[int], int]:
    """The degrees in order and the largest; ``lo..hi`` stays a range, never a list."""
    match = re.fullmatch(r"(\d+)\.\.(\d+)", spec.strip())
    if match:
        degrees = range(int(match.group(1)), int(match.group(2)) + 1)
        low, top = degrees.start, degrees.stop - 1
    else:
        degrees = [int(tok) for tok in spec.split(",")]
        low, top = min(degrees), max(degrees)
    if not degrees or low < 1:
        raise ValueError(f"bad degree range {spec!r}")
    return degrees, top


def _check_nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be a non-negative integer, got {value}")


def _check_size(flag: str, value: int, cap: int) -> None:
    _check_nonnegative(flag, value)
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def cmd_suite(args) -> int:
    with _usage():
        degrees, top = _parse_degree_range(args.degrees)
        _check_nonnegative("--seed", args.seed)
        _check_size("--count", args.count, MAX_SUITE_COUNT)
    check_degree(top)  # before any instance is built
    failures = 0
    min_gaps = {"main": math.inf, "strengthened": math.inf,
                "jensen": math.inf, "polar": math.inf}
    max_resid = {"moment_polar": 0.0, "moment_norm": 0.0, "ratio_series": 0.0}
    n_multiple = int(round(MULTIPLE_FRAC * args.count))
    # Each degree's rows are formatted once and written to every sink as its
    # block finishes; a JSON run without --out has none, and formats no CSV.
    sinks = [_OutFile(args.out + ".csv")] if args.out else []
    sinks += [sys.stdout] if args.format == "csv" else []
    block = io.StringIO()
    writer = csv.writer(block, lineterminator="\n")
    writer.writerow(SUITE_HEADER)
    with contextlib.closing(sinks[0]) if args.out else contextlib.nullcontext():
        for n in degrees:
            cols = verify_columns(random_circle_stack(
                n, [instance_rng(args.seed, n, i) for i in range(args.count)],
                multiple=[n >= 2 and i < n_multiple for i in range(args.count)]))
            failures += sum(status != "ok" for status in cols["status"])
            # min and max run through the rows in order, as a loop over the
            # rows would: a NaN is kept only where it comes first.
            for key in min_gaps:
                min_gaps[key] = min([min_gaps[key], *cols[key + "_gap"]])
            simple = cols["simple_zeros"]
            # relative to N, as the checks they summarize are
            for key in ("moment_polar", "moment_norm"):
                relative = (resid / norm for resid, norm in
                            compress(zip(cols[key + "_resid"], cols["norm"]), simple))
                max_resid[key] = max([max_resid[key], *relative])
            max_resid["ratio_series"] = max(
                [max_resid["ratio_series"], *compress(cols["ratio_series_resid"], simple)])
            if sinks:  # csv writes a None field as an empty cell
                writer.writerows(zip(repeat(n), range(args.count),
                                     *(cols[col] for col in SUITE_HEADER[2:])))
                for sink in sinks:
                    sink.write(block.getvalue())
            block.seek(0)
            block.truncate()
            del cols  # before the next block is built: one block at a time
    summary = {
        "degrees": list(degrees),
        "count": args.count,
        "seed": args.seed,
        "instances": len(degrees) * args.count,
        "failures": failures,
        # JSON has no Infinity: a gap that no instance reached is null.
        "min_gaps": {key: None if gap == math.inf else gap
                     for key, gap in min_gaps.items()},
        "max_residuals": max_resid,
    }
    if args.out:
        _write(args.out + ".json", json.dumps(summary, indent=2))
    if args.format != "csv":
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0 if failures == 0 else 1


def cmd_fourier_h(args) -> int:
    with _usage():
        _check_size("--max-k", args.max_k, MAX_FOURIER_K)
    rows = []
    worst = 0.0
    for k in range(args.max_k + 1):
        exact = h_fourier(k)
        quad = h_fourier_quadrature(k)
        resid = abs(quad - float(exact))
        worst = max(worst, resid)
        rows.append([k, exact.numerator, exact.denominator, float(exact), quad, resid])
    header = ["k", "numerator", "denominator", "value", "quadrature", "residual"]
    if args.format == "csv":
        _emit(_csv_payload(header, rows), args.out)
    else:
        payload = {
            "max_k": args.max_k,
            "rows": [dict(zip(header, row)) for row in rows],
            "max_residual": worst,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_search(args) -> int:
    with _usage():
        _check_nonnegative("--seed", args.seed)
        result = minimize(args.n, restarts=args.restarts, seed=args.seed)
    _emit(json.dumps(result.to_dict(), indent=2), args.out)
    return 0 if result.converged else 1


_SCHEDULE_RE = re.compile(r"2\^(-?\d+)\.\.(?:2\^)?(-?\d+)")


def parse_schedule(spec: str) -> list[float]:
    """Parse ``2^-1..2^-20`` style schedules (or a comma list of floats)."""
    spec = spec.strip()
    if not spec:
        raise ValueError("schedule must be nonempty")
    match = _SCHEDULE_RE.fullmatch(spec)
    if match:
        hi, lo = int(match.group(1)), int(match.group(2))
        # 2^e is a finite, positive double exactly for -1074 <= e <= 1023.
        if not 1023 >= hi >= lo >= -1074:
            raise ValueError(f"schedule must be 2^hi..2^lo with 1023 >= hi >= lo "
                             f">= -1074, got {spec!r}")
        return [2.0**e for e in range(hi, lo - 1, -1)]
    return [float(tok) for tok in spec.split(",")]


def cmd_coalesce(args) -> int:
    with _usage():
        p = _parse_poly(args)
        schedule = checked_schedule(parse_schedule(args.schedule))
    table = coalescence_experiment(p, schedule)
    if args.format == "csv":
        _emit(_csv_payload(list(table.CSV_FIELDS), table.to_csv_rows()), args.out)
    else:
        payload = {
            "limits": table.limits,
            "final_max_deviation": table.final_max_deviation,
            "rows": [dict(zip(table.CSV_FIELDS, row)) for row in table.to_csv_rows()],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_moments(args) -> int:
    with _usage():
        p = _parse_poly(args)
    d = polar_factor(normalize_self_inversive(p))
    seq = moments(d)
    _emit(json.dumps(seq.to_json_dict(), indent=2), args.out)
    return 0


def cmd_telescoping(args) -> int:
    with _usage():
        _check_size("--max-n", args.max_n, MAX_TELESCOPING_N)
    bad = [n for n, total in telescoping_sums(args.max_n)
           if total != telescoping_closed_form(n)]
    _emit(json.dumps({"max_n": args.max_n, "failures": bad}, indent=2), args.out)
    return 0 if not bad else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circentropy",
        description="verification runs for the circle-polynomial entropy inequality",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="full entropy report for one polynomial")
    _add_poly_arguments(p_verify)
    p_verify.add_argument("--precision", default="double",
                          help="'double' or a mantissa bit count >= 53 for a rerun")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_suite = sub.add_parser("suite", help="random-corpus verification run")
    p_suite.add_argument("--degrees", default="1..12")
    p_suite.add_argument("--count", type=int, default=100)
    p_suite.add_argument("--seed", type=int, default=42)
    p_suite.add_argument("--out", help="base path; writes BASE.csv and BASE.json")
    p_suite.add_argument("--format", choices=["json", "csv"], default="json")
    p_suite.set_defaults(func=cmd_suite)

    p_fourier = sub.add_parser(
        "fourier-h", help="exact h-Fourier table with quadrature residuals"
    )
    p_fourier.add_argument("--max-k", type=int, default=50)
    p_fourier.add_argument("--out")
    p_fourier.add_argument("--format", choices=["json", "csv"], default="json")
    p_fourier.set_defaults(func=cmd_fourier_h)

    p_search = sub.add_parser("search", help="minimize normalized entropy over zero angles")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--restarts", type=int, default=8)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out")
    p_search.set_defaults(func=cmd_search)

    p_coalesce = sub.add_parser("coalesce", help="root-coalescence convergence table")
    _add_poly_arguments(p_coalesce)
    p_coalesce.add_argument("--schedule", default="2^-1..2^-20")
    p_coalesce.add_argument("--out")
    p_coalesce.add_argument("--format", choices=["json", "csv"], default="json")
    p_coalesce.set_defaults(func=cmd_coalesce)

    p_moments = sub.add_parser("moments", help="moment sequence of the polar pair")
    _add_poly_arguments(p_moments)
    p_moments.add_argument("--out")
    p_moments.set_defaults(func=cmd_moments)

    p_tel = sub.add_parser("telescoping", help="exact telescoping identity check")
    p_tel.add_argument("--max-n", type=int, default=10000)
    p_tel.add_argument("--out")
    p_tel.set_defaults(func=cmd_telescoping)

    return parser


# Built on the first call to ``main`` and kept: a process that runs many
# commands in turn builds the argparse tree once, and importing the module
# builds nothing.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # e.g. a negative --seed (2); off-circle roots, n > MAX_SERIES_DEGREE (3)
    except (_UsageError, CircEntropyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, _UsageError) else 3


if __name__ == "__main__":
    sys.exit(main())
