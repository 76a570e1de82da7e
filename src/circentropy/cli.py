"""Command-line entry point for reproducible verification runs.

Commands: verify, suite, fourier-h, search, coalesce, moments, telescoping.
Polynomials are given either as JSON coefficient arrays of [re, im] pairs
(lowest degree first), as JSON arrays of root angles in radians, or through
the binomial shorthand ``--binomial n=6 omega=1``.  Identical configuration
yields byte-identical payloads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

import numpy as np

from .blaschke_moments import moments
from .corpus import instance_rng, random_circle_poly
from .entropy import (
    GAP_TOL,
    _verify_with_moments,
    h_fourier,
    h_fourier_quadrature,
    telescoping_closed_form,
    telescoping_sum,
    verify_main,
)
from .errors import CircEntropyError, RootsOffCircle
from .extremal import coalescence_experiment, minimize
from .log_integrals import polished_roots
from .polycircle import (
    TAU_EXPAND,
    CirclePoly,
    coefficients_from_json,
    from_angles,
    from_roots,
    normalize_self_inversive,
    polar_factor,
    poly_degree,
    root_clusters,
)

INPUT_ROOT_TOL = 1e-6   # circle membership tolerance for coefficient input


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


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
    omega = _parse_complex(params.get("omega", "1"))
    if omega == 0:
        raise ValueError("omega must be unimodular, got 0")
    omega /= abs(omega)
    leading = _parse_complex(params.get("leading", "1"))
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    return from_angles(angles, leading)


def _poly_from_coefficients(coeffs: np.ndarray) -> CirclePoly:
    """Recover a CirclePoly from raw coefficients, or raise RootsOffCircle.

    Roots are located numerically, required to sit within ``INPUT_ROOT_TOL``
    of the circle, snapped into multiplicity clusters, and re-expanded; a
    mismatch with the input coefficients is treated as an input error.
    """
    deg = poly_degree(coeffs)
    if deg < 1:
        raise RootsOffCircle("input polynomial must have degree >= 1")
    body = coeffs[: deg + 1]
    roots = polished_roots(body)
    off = np.max(np.abs(np.abs(roots) - 1.0)) if roots.size else 0.0
    if off > INPUT_ROOT_TOL:
        raise RootsOffCircle(
            f"a root sits {off:.3e} away from the unit circle (> {INPUT_ROOT_TOL:.0e})"
        )
    snapped = []
    for center, mult in root_clusters(roots, tol=1e-7):
        snapped.extend([center] * mult)
    p = from_roots(snapped, body[deg])
    scale = np.max(np.abs(body))
    if np.max(np.abs(p.coefficients - body)) > INPUT_ROOT_TOL * scale:
        raise RootsOffCircle(
            "re-expansion from circle roots does not reproduce the input coefficients"
        )
    return p


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
    parser.add_argument(
        "--leading", default="1", help="leading coefficient for --angles input"
    )


def _parse_poly(args) -> CirclePoly:
    if args.binomial is not None:
        return _binomial_poly(args.binomial)
    if args.angles is not None:
        angles = json.loads(args.angles)
        return from_angles(angles, _parse_complex(args.leading))
    coeffs = coefficients_from_json(json.loads(args.coeffs))
    return _poly_from_coefficients(coeffs)


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")


def _csv_payload(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_verify(args) -> int:
    try:
        p = _parse_poly(args)
    except (CircEntropyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    report = verify_main(p, gap_tol=args.tolerance)
    data = report.to_dict()
    if args.precision != "double":
        try:
            bits = int(args.precision)
        except ValueError:
            sys.stderr.write(
                f"error: --precision must be 'double' or a bit count, "
                f"got {args.precision!r}\n"
            )
            return 2
        from . import highprec  # mpmath loads only for a --precision rerun

        data["highprec"] = highprec.entropy_report_mp(p, bits=bits)
    _emit(json.dumps(data, indent=2), args.out)
    return 0 if report.inequalities_ok else 1


SUITE_HEADER = [
    "n", "index", "norm", "entropy", "jensen_term", "polar_term", "gamma",
    "main_gap", "strengthened_gap", "jensen_gap", "polar_gap",
    "moment_polar_resid", "moment_norm_resid", "ratio_series_resid",
    "moment_bound_slack_min", "simple_zeros", "extremal", "status",
]


def _parse_degree_range(spec: str) -> list[int]:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", spec.strip())
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
        degrees = list(range(lo, hi + 1))
    else:
        degrees = [int(tok) for tok in spec.split(",")]
    if not degrees or min(degrees) < 1:
        raise ValueError(f"bad degree range {spec!r}")
    return degrees


def _suite_instance_row(n: int, i: int, p: CirclePoly, tol: float):
    rep, seq = _verify_with_moments(p, gap_tol=tol)
    ratio_resid = seq.ratio_series_residual
    # M_1 = Gamma exactly (Parseval), so k = 1 is checked as an identity;
    # the bound |M_k| <= Gamma has room to spare only for k >= 2, and for
    # n <= 2 there is no such k: the column stays blank.
    has_bound = seq.values.size > 2
    if has_bound:
        bound_slack = float((rep.gamma + 1e-9 - np.abs(seq.values[2:])).min())
    else:
        bound_slack = ""
    status = "ok"
    mp_resid = mn_resid = ""
    if not rep.inequalities_ok:
        status = "violation:inequality"
    if rep.simple_zeros:
        mp_resid = abs(rep.polar_term - rep.moment_polar_term)
        mn_resid = abs(rep.norm - rep.moment_norm)
        m1_resid = abs(seq.values[1] - rep.gamma) if rep.degree >= 2 else 0.0
        if (mp_resid > 1e-8 * rep.norm or mn_resid > 1e-9 * rep.norm
                or m1_resid > 1e-9 * rep.norm):
            status = "violation:moment_identity"
        if ratio_resid > TAU_EXPAND:
            status = "violation:ratio_series"
        if has_bound and bound_slack < 0:
            status = "violation:moment_bound"
    row = [
        n, i, rep.norm, rep.entropy, rep.jensen_term, rep.polar_term,
        rep.gamma, rep.main_gap, rep.strengthened_gap, rep.jensen_gap,
        rep.polar_gap, mp_resid, mn_resid, ratio_resid, bound_slack,
        rep.simple_zeros, rep.extremal, status,
    ]
    return row, rep, (mp_resid, mn_resid, ratio_resid), status


def cmd_suite(args) -> int:
    try:
        degrees = _parse_degree_range(args.degrees)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    rows = []
    failures = 0
    input_errors = 0
    min_gaps = {"main": math.inf, "strengthened": math.inf,
                "jensen": math.inf, "polar": math.inf}
    max_resid = {"moment_polar": 0.0, "moment_norm": 0.0, "ratio_series": 0.0}
    n_multiple = int(round(args.multiple_frac * args.count))
    for n in degrees:
        for i in range(args.count):
            if args.inject_bad and i < args.inject_bad:
                input_errors += 1
                rows.append([n, i] + [""] * (len(SUITE_HEADER) - 3) + ["input_error"])
                continue
            rng = instance_rng(args.seed, n, i)
            p = random_circle_poly(n, rng, multiple=(n >= 2 and i < n_multiple))
            row, rep, resids, status = _suite_instance_row(n, i, p, args.tolerance)
            if status != "ok":
                failures += 1
            for key, attr in (
                ("main", "main_gap"), ("strengthened", "strengthened_gap"),
                ("jensen", "jensen_gap"), ("polar", "polar_gap"),
            ):
                min_gaps[key] = min(min_gaps[key], getattr(rep, attr))
            if rep.simple_zeros:
                # relative to N, as the checks they summarize are
                max_resid["moment_polar"] = max(max_resid["moment_polar"],
                                                resids[0] / rep.norm)
                max_resid["moment_norm"] = max(max_resid["moment_norm"],
                                               resids[1] / rep.norm)
                max_resid["ratio_series"] = max(max_resid["ratio_series"], resids[2])
            rows.append(row)
    summary = {
        "degrees": degrees,
        "count": args.count,
        "seed": args.seed,
        "instances": len(rows),
        "failures": failures,
        "input_errors": input_errors,
        "min_gaps": min_gaps,
        "max_residuals": max_resid,
    }
    csv_payload = _csv_payload(SUITE_HEADER, rows)
    if args.out:
        with open(args.out + ".csv", "w") as fh:
            fh.write(csv_payload)
        with open(args.out + ".json", "w") as fh:
            fh.write(json.dumps(summary, indent=2))
    if args.format == "csv":
        sys.stdout.write(csv_payload)
    else:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0 if failures == 0 else 1


def cmd_fourier_h(args) -> int:
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
    try:
        result = minimize(args.n, restarts=args.restarts, seed=args.seed)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
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
        if lo > hi:
            raise ValueError(f"schedule exponents must descend: {spec!r}")
        return [2.0**e for e in range(hi, lo - 1, -1)]
    return [float(tok) for tok in spec.split(",")]


def cmd_coalesce(args) -> int:
    try:
        p = _parse_poly(args)
        schedule = parse_schedule(args.schedule)
    except (CircEntropyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    table = coalescence_experiment(p, schedule, seed=args.seed)
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
    try:
        p = _parse_poly(args)
    except (CircEntropyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    d = polar_factor(normalize_self_inversive(p).normalized)
    seq = moments(d)
    _emit(json.dumps(seq.to_json_dict(), indent=2), args.out)
    return 0


def cmd_telescoping(args) -> int:
    bad = [n for n in range(2, args.max_n + 1)
           if telescoping_sum(n) != telescoping_closed_form(n)]
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
    p_verify.add_argument("--tolerance", type=float, default=GAP_TOL)
    p_verify.add_argument("--precision", default="double",
                          help="'double' or a mantissa bit count for a rerun")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_suite = sub.add_parser("suite", help="random-corpus verification run")
    p_suite.add_argument("--degrees", default="1..12")
    p_suite.add_argument("--count", type=int, default=100)
    p_suite.add_argument("--seed", type=int, default=42)
    p_suite.add_argument("--multiple-frac", type=float, default=0.1)
    p_suite.add_argument("--tolerance", type=float, default=GAP_TOL)
    p_suite.add_argument("--inject-bad", type=int, default=0,
                         help="treat the first K instances per degree as input errors")
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
    p_coalesce.add_argument("--seed", type=int, default=0)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CircEntropyError as exc:  # e.g. a degree above MAX_SERIES_DEGREE
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
