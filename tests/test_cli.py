"""End-to-end tests of the command-line interface contracts."""

import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import circentropy
from circentropy import entropy, extremal
from circentropy.cli import (
    INPUT_ROOT_TOL,
    MAX_FOURIER_K,
    MAX_PRECISION_BITS,
    MAX_SUITE_COUNT,
    MAX_TELESCOPING_N,
    MULTIPLE_FRAC,
    SUITE_HEADER,
    _poly_from_coefficients,
    main,
    parse_schedule,
)
from circentropy.corpus import instance_rng, random_circle_stack
from circentropy.log_integrals import MAX_SERIES_DEGREE
from circentropy.polycircle import has_simple_zeros


# The coefficients of from_angles([2.514] * 6 + [2.536, 4.312]).
SIX_FOLD_BESIDE_A_SIMPLE_ZERO = (
    "[[-0.9982512329656473, 0.05911409208105515], "
    "[-6.24547148140249, -2.8072409244426515], "
    "[-13.566244602665893, -15.511016267183077], "
    "[-12.560246803137483, -34.372469528016666], "
    "[-1.290758129510881, -43.63188087569635], "
    "[10.506384528852358, -35.05484767249818], "
    "[12.625600757435757, -16.285847345901804], "
    "[6.068602108260602, -3.171527090297725], [1.0, 0.0]]"
)
# A double zero at 2.306 whose two companion roots sit 8.85e-6 off the
# circle, 3.5e-5 apart along it, with their midpoint on it.
DOUBLE_ZERO_PARTED_ALONG_THE_CIRCLE = [
    1.058, 2.011, 2.056, 2.306, 2.306, 2.459, 2.466, 2.667, 2.96, 3.064, 3.703, 3.912,
]


def coefficient_json(angles) -> str:
    """The coefficients of from_angles(angles), as --coeffs takes them."""
    p = circentropy.from_angles(angles)
    return json.dumps([[z.real, z.imag] for z in p.coefficients.tolist()])


def recovered(angles):
    """The CirclePoly that --coeffs recovers from the coefficients of the angles."""
    coeffs = circentropy.coefficients_from_json(json.loads(coefficient_json(angles)))
    return _poly_from_coefficients(coeffs)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_angles_degree_one(capsys):
    code, out = run_cli(capsys, "verify", "--angles", "[3.14159265358979]")
    doc = json.loads(out)
    assert code == 0
    assert doc["extremal"] is True
    assert abs(doc["entropy"] - doc["main_bound"]) < 1e-9


def test_verify_binomial_shorthand(capsys):
    code, out = run_cli(capsys, "verify", "--binomial", "n=6", "omega=1")
    doc = json.loads(out)
    assert code == 0
    assert doc["extremal"] is True
    assert abs(doc["main_gap"]) < 1e-9
    assert abs(doc["strengthened_gap"]) < 1e-9


def test_verify_coefficients_double_zero(capsys):
    coeffs = json.dumps([[1, 0], [-2, 0], [1, 0]])
    code, out = run_cli(capsys, "verify", "--coeffs", coeffs)
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["entropy"] - 14.0) < 1e-8
    assert abs(doc["polar_gap"]) < 1e-8
    assert doc["simple_zeros"] is False


def test_verify_rejects_off_circle_roots(capsys):
    coeffs = json.dumps([[1, 0], [0, 0], [0, 0], [0.5, 0]])  # zeros off circle
    code, _ = run_cli(capsys, "verify", "--coeffs", coeffs)
    assert code == 3


def test_verify_rejects_non_finite_angles(capsys):
    code, out = run_cli(capsys, "verify", "--angles", "[NaN, 1.0]")
    assert code == 3
    assert out == ""


def test_verify_degree_limit(capsys):
    from circentropy.log_integrals import MAX_SERIES_DEGREE

    top = MAX_SERIES_DEGREE
    code, out = run_cli(capsys, "verify", "--binomial", f"n={top}")
    assert code == 0
    assert json.loads(out)["extremal"] is True
    code = main(["verify", "--binomial", f"n={top + 1}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert str(top) in captured.err


def test_cold_import_skips_optimizer_and_mpmath():
    # verify --precision imports mpmath itself; a cold start of every other
    # command should not pay for it.  No command loads scipy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(circentropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, circentropy, circentropy.cli; "
            "print([m for m in ('scipy', 'mpmath') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_in_process_commands_match_separate_runs(capsys, tmp_path):
    # main keeps one parser for the process; each command in a run of them,
    # usage errors and invalid input among them, gives the bytes and exit
    # code of a process of its own.
    commands = [
        ("suite", "--degrees", "1..5", "--count", "4", "--seed", "3",
         "--format", "csv"),
        ("verify", "--binomial", "n=5"),
        ("verify", "--angles", "[1,"),
        ("search", "--n", "3", "--restarts", "2", "--seed", "1"),
        ("verify",),
        ("suite", "--degrees", "2,7", "--count", "3", "--seed", "9"),
        ("verify", "--angles", "[0.3, 2.0, 4.0]", "--leading", "2-1i"),
        ("verify", "--binomial", "n=3", "--out", str(tmp_path / "missing" / "x")),
        ("verify", "--coeffs", "[[1,0],[0,0],[0,0],[0.5,0]]"),
    ]
    in_process = []
    for argv in commands:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = os.path.dirname(os.path.dirname(os.path.abspath(circentropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, result in zip(commands, in_process):
        proc = subprocess.run([sys.executable, "-m", "circentropy", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == result, argv
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 2, 0, 0, 2, 3]


def test_verify_highprec_rerun(capsys):
    code, out = run_cli(capsys, "verify", "--angles", "[0.0, 0.0]",
                        "--precision", "120")
    doc = json.loads(out)
    assert code == 0
    assert doc["highprec"]["bits"] == 120
    assert abs(float(doc["highprec"]["entropy"]) - 14.0) < 1e-20


def test_suite_deterministic_and_green(capsys, tmp_path):
    base1, base2 = tmp_path / "a", tmp_path / "b"
    args = ["suite", "--degrees", "1..6", "--count", "10", "--seed", "42"]
    code1, out1 = run_cli(capsys, *args, "--out", str(base1))
    code2, out2 = run_cli(capsys, *args, "--out", str(base2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert (base1.with_suffix(".csv").read_bytes()
            == base2.with_suffix(".csv").read_bytes())
    summary = json.loads(base1.with_suffix(".json").read_text())
    assert summary["failures"] == 0
    assert summary["min_gaps"]["main"] > -1e-9
    csv_text = base1.with_suffix(".csv").read_text()
    assert csv_text.splitlines()[0].startswith("n,index,norm")
    assert ",ratio_series_resid," in csv_text.splitlines()[0]
    assert summary["max_residuals"]["ratio_series"] < 1e-13
    assert len(csv_text.splitlines()) == 61
    # The k >= 2 moment bound exists only for n >= 3; below, its slack is
    # blank, not 0.  The summary's moment residuals are relative to N.
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    for row in rows:
        assert (row["moment_bound_slack_min"] == "") == (int(row["n"]) <= 2)
    for key in ("moment_polar", "moment_norm"):
        relative = [float(row[key + "_resid"]) / float(row["norm"])
                    for row in rows if row[key + "_resid"] != ""]
        assert summary["max_residuals"][key] == max(relative)
        assert max(relative) < 1e-12


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_suite_without_instances_writes_strict_json(capsys, tmp_path):
    # With --count 0 no instance reaches a gap: each minimum is null, on
    # stdout and in --out, where Infinity would not be JSON (RFC 8259).
    base = tmp_path / "empty"
    code, out = run_cli(capsys, "suite", "--degrees", "3..3", "--count", "0",
                        "--out", str(base))
    assert code == 0
    for text in (out, base.with_suffix(".json").read_text()):
        summary = json.loads(text, parse_constant=_reject_constant)
        assert summary["instances"] == summary["failures"] == 0
        assert summary["min_gaps"] == dict.fromkeys(
            ("main", "strengthened", "jensen", "polar"))
    assert base.with_suffix(".csv").read_text() == ",".join(SUITE_HEADER) + "\n"


def test_suite_full_degree_range(capsys):
    # degrees 1..12, 100 instances each, seed 42: zero failures and a
    # strictly positive minimum main-inequality gap (up to rounding)
    code, out = run_cli(capsys, "suite", "--degrees", "1..12", "--count",
                        "100", "--seed", "42")
    summary = json.loads(out)
    assert code == 0
    assert summary["failures"] == 0
    assert summary["instances"] == 1200
    assert summary["min_gaps"]["main"] > -1e-9


def _suite_from_reports(degrees, count, seed):
    # The reference: the suite's CSV and summary built from one EntropyReport
    # per row, each cell read with getattr, and each instance seeded from
    # the int list [seed, n, index].
    rows, failures = [], 0
    min_gaps = {key: math.inf for key in ("main", "strengthened", "jensen", "polar")}
    max_resid = {"moment_polar": 0.0, "moment_norm": 0.0, "ratio_series": 0.0}
    n_multiple = int(round(MULTIPLE_FRAC * count))
    for n in degrees:
        rngs = [np.random.default_rng(np.random.SeedSequence([seed, n, i]))
                for i in range(count)]
        polys = random_circle_stack(
            n, rngs, multiple=[n >= 2 and i < n_multiple for i in range(count)])
        for i, rep in enumerate(circentropy.verify_stack(polys)):
            failures += rep.status != "ok"
            for key in min_gaps:
                min_gaps[key] = min(min_gaps[key], getattr(rep, key + "_gap"))
            if rep.simple_zeros:
                for key in ("moment_polar", "moment_norm"):
                    max_resid[key] = max(max_resid[key],
                                         getattr(rep, key + "_resid") / rep.norm)
                max_resid["ratio_series"] = max(max_resid["ratio_series"],
                                                rep.ratio_series_resid)
            rows.append([n, i] + [getattr(rep, col) for col in SUITE_HEADER[2:]])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUITE_HEADER)
    for row in rows:
        writer.writerow(row)
    summary = {"degrees": list(degrees), "count": count, "seed": seed,
               "instances": len(rows), "failures": failures,
               "min_gaps": min_gaps, "max_residuals": max_resid}
    return buf.getvalue(), json.dumps(summary, indent=2) + "\n"


@pytest.mark.parametrize("seed", [42, 2**32 + 7])
def test_suite_payloads_match_the_report_rows(capsys, seed):
    want_csv, want_json = _suite_from_reports(range(1, 21), 10, seed)
    args = ("suite", "--degrees", "1..20", "--count", "10", "--seed", str(seed))
    assert run_cli(capsys, *args, "--format", "csv") == (0, want_csv)
    assert run_cli(capsys, *args) == (0, want_json)
    # None fields are blank cells: the moment residuals of the multiple-zero
    # rows, and the bound slack for n <= 2
    rows = list(csv.DictReader(io.StringIO(want_csv)))
    multiple = [row for row in rows if row["simple_zeros"] == "False"]
    assert len(multiple) == 19
    assert all(row["moment_polar_resid"] == row["moment_norm_resid"] == ""
               for row in multiple)
    assert sum(row["moment_bound_slack_min"] == "" for row in rows) == 20


def test_suite_above_the_degree_limit_is_invalid_input(capsys):
    # The suite refuses the degree before it builds any instance: exit 3
    # with the IllConditioned message, no payload.
    code = main(["suite", "--degrees", "300..300", "--count", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"certified up to degree {MAX_SERIES_DEGREE}" in captured.err


def test_suite_checks_the_degree_limit_before_building_instances(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr("circentropy.cli.random_circle_stack", build)
    code = main(["suite", "--degrees", "1..129", "--count", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"certified up to degree {MAX_SERIES_DEGREE}" in captured.err


def test_suite_refuses_a_huge_degree_range_before_building_it(capsys, monkeypatch):
    # As a list, 1..10^18 would not fit in memory: the range is refused by
    # its top degree before any degree list or instance is built.
    def build(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr("circentropy.cli.random_circle_stack", build)
    code = main(["suite", "--degrees", "1..1000000000000000000", "--count", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"error: the log series is certified up to degree "
                            f"{MAX_SERIES_DEGREE}, got degree 1000000000000000000\n")


def test_suite_memory_does_not_grow_with_the_degrees(capsys):
    # Each degree's rows are written, and its block freed, before the next
    # degree is built: the traced peak of eight degrees is that of the last
    # alone (1.01x measured; 2.2x when every row was held to the end).
    def peak(degrees):
        tracemalloc.start()
        try:
            assert main(["suite", "--degrees", degrees, "--count", "500"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    main(["suite", "--degrees", "1..8", "--count", "1"])  # caches and imports
    assert peak("1..8") <= 1.25 * peak("8..8")


def test_verify_and_suite_share_one_verdict(capsys, monkeypatch):
    # A negative tolerance fails the moment-norm identity on every
    # simple-zero instance; verify and the suite read the same verdict.
    monkeypatch.setattr(entropy, "MOMENT_NORM_TOL", -1.0)
    code, out = run_cli(capsys, "verify", "--binomial", "n=6")
    assert code == 1
    assert json.loads(out)["status"] == "violation:moment_identity"
    code, out = run_cli(capsys, "suite", "--degrees", "6", "--count", "1",
                        "--format", "csv")
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["status"] for row in rows] == ["violation:moment_identity"]


def test_fourier_h_table(capsys):
    code, out = run_cli(capsys, "fourier-h", "--max-k", "2")
    doc = json.loads(out)
    assert code == 0
    rows = doc["rows"]
    assert [rows[0]["numerator"], rows[0]["denominator"]] == [2, 1]
    assert [rows[1]["numerator"], rows[1]["denominator"]] == [3, 2]
    assert [rows[2]["numerator"], rows[2]["denominator"]] == [1, 3]
    assert doc["max_residual"] < 1e-9


def test_search_command(capsys):
    code, out = run_cli(capsys, "search", "--n", "2", "--restarts", "4",
                        "--seed", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["converged"] is True
    assert doc["gap"] < 1e-6
    assert doc["angle_gap_deviation"] < 1e-4


def test_search_exit_code_follows_converged(capsys, monkeypatch):
    # No gradient max-norm is below a negative tolerance, so no endpoint
    # converges, and search exits 1 with the payload still written.
    monkeypatch.setattr(extremal, "GRAD_TOL", -1.0)
    code, out = run_cli(capsys, "search", "--n", "4", "--restarts", "2",
                        "--seed", "0")
    doc = json.loads(out)
    assert code == 1
    assert doc["converged"] is False
    assert not any(entry["converged"] for entry in doc["trace"])
    assert doc["gap"] < 1e-6


def test_coalesce_command(capsys):
    code, out = run_cli(capsys, "coalesce", "--angles", "[0.0, 0.0]",
                        "--schedule", "2^-1..2^-20")
    doc = json.loads(out)
    assert code == 0
    assert doc["final_max_deviation"] < 1e-4
    assert len(doc["rows"]) == 20
    assert abs(doc["limits"]["entropy"] - 14.0) < 1e-9


@pytest.mark.parametrize("argv", [
    ("suite", "--degrees", "0"),
    ("suite", "--degrees", "3,-1"),
    ("search", "--n", "0"),
    ("search", "--n", "3", "--restarts", "0"),
    ("suite", "--seed", "-1"),
    ("search", "--n", "3", "--seed", "-1"),
    ("suite", "--degrees", "1..3", "--count", "-2"),
    ("fourier-h", "--max-k", "-1"),
    ("telescoping", "--max-n", "-1"),
    # checked before the polynomial is parsed or verified
    ("verify", "--binomial", "n=6", "--precision", "1"),
    ("verify", "--binomial", "n=6", "--precision", "-8"),
    ("verify", "--binomial", "n=6", "--precision", "52"),
    ("verify", "--coeffs", "[[1,0],[3,0]]", "--precision", "abc"),
    # a schedule must be finite, positive and strictly decreasing
    ("coalesce", "--angles", "[0.0, 0.0]", "--schedule", "0.1,0.2"),
    ("coalesce", "--angles", "[0.0, 0.0]", "--schedule", "-0.1"),
    ("coalesce", "--angles", "[0.0, 0.0]", "--schedule", "nan"),
    ("coalesce", "--angles", "[0.0, 0.0]", "--schedule", "inf"),
    # 2^2000 overflows a double
    ("coalesce", "--angles", "[0.0, 0.0]", "--schedule", "2^2000..2^1999"),
    # binomial parameters: an unknown name, and an omega of modulus 0
    ("verify", "--binomial", "n=4", "foo=1"),
    ("verify", "--binomial", "n=4", "omega=0"),
    # a size one above its budget
    ("suite", "--count", str(MAX_SUITE_COUNT + 1)),
    ("fourier-h", "--max-k", str(MAX_FOURIER_K + 1)),
    ("telescoping", "--max-n", str(MAX_TELESCOPING_N + 1)),
    ("search", "--n", "3", "--restarts", str(extremal.MAX_RESTARTS + 1)),
    ("verify", "--binomial", "n=2", "--precision", str(MAX_PRECISION_BITS + 1)),
])
def test_bad_arguments_are_usage_errors(capsys, monkeypatch, argv):
    # exit 1 means an inequality violated or a search not converged.  Each
    # is refused before the work it would size starts.
    def never(*args, **kwargs):
        raise AssertionError("ran past the argument checks")

    for target in ("cli.random_circle_stack", "cli.h_fourier",
                   "cli.telescoping_sums", "extremal._start",
                   "highprec.entropy_report_mp"):
        monkeypatch.setattr(f"circentropy.{target}", never)
    code = main(list(argv))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ")
    if "--seed" in argv:
        # every command names the flag, as suite does
        assert "--seed must be a non-negative integer, got -1" in err
    for flag in ("--count", "--max-k", "--max-n", "--precision"):
        if flag in argv:
            assert f"error: {flag} must be " in err
    if argv[0] == "search" and "--seed" not in argv:
        assert err.startswith("error: need n ")
    if "--schedule" in argv:
        assert err.startswith("error: schedule must be ")


@pytest.mark.parametrize("argv, target", [
    (("verify", "--binomial", "n=3"), "verify_main"),
    (("suite", "--degrees", "2", "--count", "1"), "verify_columns"),
])
def test_a_value_error_while_computing_is_not_a_usage_error(monkeypatch, argv, target):
    # Only the parsing of the command line is a usage error (exit 2): a
    # ValueError raised by the computation propagates out of main.
    def fail(p):
        raise ValueError("raised while computing")

    monkeypatch.setattr(f"circentropy.cli.{target}", fail)
    with pytest.raises(ValueError, match="raised while computing"):
        main(list(argv))


@pytest.mark.parametrize("argv", [
    ("verify", "--binomial", "n=3"),
    ("suite", "--degrees", "1..2", "--count", "1"),
    ("fourier-h", "--max-k", "2"),
    ("search", "--n", "3", "--restarts", "1"),
    ("coalesce", "--angles", "[0.3, 0.3, 2.0, 5.0]", "--schedule", "2^-1..2^-2"),
    ("moments", "--angles", "[0.3, 1.3]"),
    ("telescoping", "--max-n", "3"),
])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    # An --out in a missing directory is not a failed check (exit 1).
    out = tmp_path / "missing" / "result"
    code = main([*argv, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    written = f"{out}.csv" if argv[0] == "suite" else str(out)
    assert captured.err == (f"error: cannot write {written!r}: "
                            f"No such file or directory\n")


def test_a_write_that_fails_midway_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # The suite streams its rows to --out, a degree at a time.  A write that
    # fails after the first degree, as on a full disk, is a usage error
    # naming the path, as a failed open is.
    class FullDisk(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(text)

    monkeypatch.setattr("circentropy.cli.open", lambda *args: FullDisk(),
                        raising=False)
    out = f"{tmp_path / 'result'}.csv"
    code = main(["suite", "--degrees", "1..2", "--count", "1", "--out", out[:-4]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out!r}: No space left on device\n"


@pytest.mark.parametrize("command", ["verify", "moments", "coalesce"])
@pytest.mark.parametrize("poly_args, expected", [
    (("--angles", "[1,"), 2),             # not JSON
    (("--coeffs", "[1, 2]"), 2),          # JSON, but not [re, im] pairs
    (("--binomial", "n=6", "omega"), 2),  # a token without '='
    (("--angles", "[]"), 2),              # an empty list
    (("--coeffs", "[[1,0],[0,0],[0,0],[0.5,0]]"), 3),  # zeros off the circle
    (("--angles", "5"), 2),               # a JSON scalar, not an array
    (("--angles", "true"), 2),
    (("--angles", "null"), 2),
    (("--angles", '"x"'), 2),
    (("--angles", "[true]"), 2),          # a boolean is not a real number
    # a leading factor that is not finite, or squared coefficients that
    # overflow a double: 1e150 still passes (test_entropy.py)
    (("--binomial", "n=4", "leading=nan"), 3),
    (("--binomial", "n=4", "leading=1e160"), 3),
    (("--angles", "[0.1,2.0,3.0]", "--leading", "1e200"), 3),
    # (z - 1)^3 (z + 1) and (z - i)^4 (z + 1): companion roots of a zero of
    # multiplicity m spread about eps^(1/m) off the circle, their centroid not
    (("--coeffs", "[[-1,0],[2,0],[0,0],[-2,0],[1,0]]"), 0),
    (("--coeffs", "[[1,0],[1,4],[-6,4],[-6,-4],[1,-4],[1,0]]"), 0),
    (("--coeffs", "[[5,0]]"), 3),         # degree 0
    # z^20 - (1 + 9e-7)^20: its roots lie within INPUT_ROOT_TOL of the
    # circle, but their re-expansion misses the input coefficients
    (("--coeffs", json.dumps([[-(1 + 9e-7) ** 20, 0]] + [[0, 0]] * 19 + [[1, 0]])), 3),
    # a coefficient that is not finite is refused before any eigensolve
    (("--coeffs", "[[NaN,0],[1,0]]"), 3),
    (("--coeffs", "[[1,0],[NaN,0]]"), 3),
    (("--coeffs", "[[1,0],[0,0],[Infinity,0]]"), 3),
    # inf parses as a number, not as "jnf", and is refused as nan is
    (("--binomial", "n=4", "leading=inf"), 3),
    (("--angles", "[0.1,2.0,3.0]", "--leading", "inf"), 3),
    (("--binomial", "n=4", "omega=inf"), 3),
    (("--binomial", "n=4", "omega=nan"), 3),
    # an infinite root angle is refused before numpy builds a NaN root
    (("--angles", "[Infinity, 1.0]"), 3),
    (("--angles", "[-Infinity]"), 3),
    # squared coefficients that underflow: lambda / |lambda| is not finite
    (("--binomial", "n=4", "leading=1e-160"), 3),
    # ... or every product in <p, refl> underflows to 0
    (("--binomial", "n=4", "leading=1e-170"), 3),
    # a 6-fold zero with a simple zero 0.022 rad away, whose companion
    # roots link into one cluster: fitted with their multiplicities
    (("--coeffs", SIX_FOLD_BESIDE_A_SIMPLE_ZERO), 0),
    # a degree above the cap, and a --leading that only --angles takes
    (("--binomial", f"n={MAX_SERIES_DEGREE + 1}"), 3),
    (("--binomial", "n=2", "--leading", "5"), 2),
    (("--coeffs", "[[1,0],[1,0]]", "--leading", "7"), 2),
    # a double zero whose companion roots part along the circle
    (("--coeffs", coefficient_json(DOUBLE_ZERO_PARTED_ALONG_THE_CIRCLE)), 0),
])
def test_polynomial_argument_exit_codes(capsys, command, poly_args, expected):
    # text that does not parse is a usage error (2); a parsed polynomial
    # that is not a circle polynomial is invalid input (3), and one that is
    # runs (0)
    code = main([command, *poly_args])
    captured = capsys.readouterr()
    assert code == expected
    if expected == 0:
        assert captured.out and captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ")


ABOVE_THE_CAP = [
    (("--binomial", f"n={MAX_SERIES_DEGREE + 1}"), MAX_SERIES_DEGREE + 1),
    (("--angles", json.dumps([0.0] * (MAX_SERIES_DEGREE + 1))), MAX_SERIES_DEGREE + 1),
    # z^129 - 1
    (("--coeffs", json.dumps([[-1, 0]] + [[0, 0]] * MAX_SERIES_DEGREE + [[1, 0]])),
     MAX_SERIES_DEGREE + 1),
    (("--binomial", "n=1000000000"), 10**9),
]


@pytest.mark.parametrize("command", ["verify", "moments", "coalesce"])
@pytest.mark.parametrize("poly_args, degree", ABOVE_THE_CAP)
def test_a_degree_above_the_cap_is_refused_before_the_polynomial_is_built(
        capsys, monkeypatch, command, poly_args, degree):
    # One rule and one message in every command: n = 10^9 once built its
    # roots before the check, and ran out of memory.
    def never(*args, **kwargs):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr("circentropy.cli.from_angles", never)
    monkeypatch.setattr(np, "roots", never)
    code = main([command, *poly_args])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"error: the log series is certified up to degree "
                            f"{MAX_SERIES_DEGREE}, got degree {degree}\n")


@pytest.mark.parametrize("n", [MAX_SERIES_DEGREE + 1, 10**9])
def test_search_above_the_cap_is_invalid_input(capsys, monkeypatch, n):
    # As in every other command: exit 3, refused before a start is built.
    def never(x0):
        raise AssertionError("a start was built")

    monkeypatch.setattr(extremal, "_start", never)
    code = main(["search", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"error: the log series is certified up to degree "
                            f"{MAX_SERIES_DEGREE}, got degree {n}\n")


@pytest.mark.parametrize("command", ["verify", "moments", "coalesce"])
@pytest.mark.parametrize("leading", ["1e-160", "1e-170"])
def test_squared_coefficients_that_underflow_are_named(capsys, command, leading):
    # At 1e-170 every product in <p, refl> underflows to 0: the message
    # names the underflow, not an orthogonal reflection.
    code = main([command, "--binomial", "n=4", f"leading={leading}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: the squared coefficients underflow a double\n"


@pytest.mark.parametrize("omega", ["inf", "nan", "-inf"])
def test_binomial_omega_that_is_not_finite_is_named(capsys, omega):
    # The message names omega, not the NaN root angles it would give.
    code = main(["verify", "--binomial", "n=4", f"omega={omega}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: omega must be finite, got '{omega}'\n"


def test_coalesce_rotations_below_rounding_are_invalid_input(capsys):
    # At epsilon = 2^-54 every rotation of the double zero rounds back onto
    # the roots, and so do the seeded jitters: SeparationFailure (exit 3).
    code = main(["coalesce", "--angles", "[0.7, 0.7, 2.0]",
                 "--schedule", "2^-52..2^-56"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: could not separate roots at epsilon=5.551e-17\n"


def test_coalesce_empty_schedule_is_usage_error(capsys):
    code, _ = run_cli(capsys, "coalesce", "--angles", "[0.0, 0.0]",
                      "--schedule", "")
    assert code == 2


def test_parse_schedule():
    sched = parse_schedule("2^-1..2^-20")
    assert len(sched) == 20
    assert sched[0] == 0.5
    assert sched[-1] == 2.0**-20
    assert parse_schedule("0.1,0.01") == [0.1, 0.01]
    with pytest.raises(ValueError):
        parse_schedule("2^-20..2^-1")


def test_moments_command(capsys):
    code, out = run_cli(capsys, "moments", "--angles", "[0.0, 3.141592653589793]")
    doc = json.loads(out)
    assert code == 0
    assert doc["degree"] == 2
    assert abs(doc["moments"][0][0] - 1.0) < 1e-12
    assert len(doc["moments"]) == 2
    assert 0.0 <= doc["ratio_series_residual"] < 1e-13
    with pytest.raises(SystemExit):  # moments takes no --extra
        main(["moments", "--angles", "[0.0, 3.0]", "--extra", "6"])


def test_telescoping_command(capsys):
    code, out = run_cli(capsys, "telescoping", "--max-n", "500")
    doc = json.loads(out)
    assert code == 0
    assert doc["failures"] == []


def test_coefficient_input_splits_a_simple_zero_off_a_multiple_one():
    # The companion roots of the 6-fold zero spread about 5e-3 and link the
    # simple zero into their cluster, whose centroid sits 3e-5 off the
    # circle; the 6-gon's own centroid sits 6e-6 off.  Fitted with their
    # multiplicities, every zero is recovered to rounding.
    coeffs = circentropy.coefficients_from_json(json.loads(SIX_FOLD_BESIDE_A_SIMPLE_ZERO))
    roots = _poly_from_coefficients(coeffs).roots
    assert roots.size == 8
    for angle, count in ((2.514, 6), (2.536, 1), (4.312, 1)):
        near = np.abs(roots - np.exp(1j * angle)) <= INPUT_ROOT_TOL
        assert near.sum() == count, angle


def multiple_zero_angles():
    """The root angles of 600 circle polynomials: one zero of multiplicity
    1..6 and one to four simple zeros, rounded to 1e-3."""
    rng = instance_rng(669)
    for i in range(600):
        angles = np.round(rng.uniform(0, 2 * np.pi, int(rng.integers(2, 6))), 3)
        yield np.concatenate(([angles[0]] * (i % 6), angles))


def test_coefficient_input_with_a_multiple_zero_is_accepted():
    # Given by coefficients.  Before the fits, 10 of these were refused,
    # each with a root 2e-6 to 9e-5 off the circle.
    for angles in multiple_zero_angles():
        recovered(angles)


def test_coefficient_input_joins_a_double_zero_parted_along_the_circle():
    # Neither root is linked to the other by distance, but their midpoint
    # is the zero: fitted as one double zero.
    roots = recovered(DOUBLE_ZERO_PARTED_ALONG_THE_CIRCLE).roots
    assert roots.size == 12
    assert (np.abs(roots - np.exp(2.306j)) <= INPUT_ROOT_TOL).sum() == 2


def test_verify_reads_a_double_zero_given_by_coefficients_as_the_angles_do(capsys):
    # Its two companion roots were once left apart, 1e-8 from the zero, and
    # verify reported simple zeros where --angles did not.
    angles = [0.088, 0.088, 0.173, 1.811, 2.958, 3.606, 6.027]
    _, by_coeffs = run_cli(capsys, "verify", "--coeffs", coefficient_json(angles))
    _, by_angles = run_cli(capsys, "verify", "--angles", json.dumps(angles))
    assert json.loads(by_coeffs)["simple_zeros"] is False
    assert json.loads(by_angles)["simple_zeros"] is False
    roots = recovered(angles).roots
    assert (np.abs(roots - np.exp(0.088j)) <= INPUT_ROOT_TOL).sum() == 2


def test_coefficient_input_reads_a_double_zero_as_double():
    # 300 inputs, each with one double zero and up to eleven simple zeros,
    # at angles rounded to 1e-3: every one is accepted, and 2 are read as
    # simple zeros, recovered 3.5e-7 and 1.1e-6 apart, which the re-expansion
    # tolerance cannot tell from a double zero.  Grouped by two rules, 56
    # were read as simple and 2 refused.
    rng = instance_rng(1046)
    simple = 0
    for _ in range(300):
        angles = np.round(rng.uniform(0, 2 * np.pi, int(rng.integers(1, 12))), 3)
        simple += bool(has_simple_zeros(recovered([angles[0], *angles]).roots))
    assert simple <= 2


def test_coefficient_input_fits_each_multiple_zero_first():
    # Fitted with its multiplicity before the centroid of its companion
    # roots is tried, a multiple zero is recovered to rounding: 2 of the 600
    # have a root more than 1e-10 from its place.  One is a 5-fold zero
    # 2e-3 from a simple one, read as a 6-fold zero; the other a double
    # zero 3e-3 from a simple one, read as two simple zeros 1.1e-6 apart.
    # With the centroids tried first, 29 of the 600 were that far off.
    far = 0
    for angles in multiple_zero_angles():
        roots = recovered(angles).roots
        dist = np.abs(np.exp(1j * angles)[:, None] - roots)
        far += max(dist.min(axis=0).max(), dist.min(axis=1).max()) > 1e-10
    assert far <= 2


def test_coefficient_input_with_simple_zeros_keeps_its_bits():
    # Simple zeros take one Newton step and a projection onto the circle,
    # root by root as numpy scalars (dividing the array by its moduli gives
    # other bits for some).  The bits were frozen before the roots were
    # grouped by one rule, and did not change.
    frozen = [
        ("dfe2d6f28237eebf97a39f49db10d5bfd63ccad820d6ecbf06a7ce50f8bedbbf"
         "226d21351195debfa8a7d721331cec3f442246018785ecbf63ff5da8be04dd3f",
         "e048ce4e6835e73fed2b0bfae707e6bfcea9ccd846c90540644eb23513cefcbf"
         "df902de1f11c114032adccacd350fbbf22feddd96cb709400b82cfa8a836e2bf"
         "000000000000f03f0000000000000000"),
        ("02453ed46cbad5bffae7e13a6f19eebf8640fb6c6fe2ca3feb67e1884449efbf"
         "c61ba2eb182ee83ff59a49d1c6f5e4bf6bf19752f196ee3f1bd9fb2a7dcad23f"
         "57cfadba7a5dc0bfab6bd601c5bcef3f676b2ddf3ad5e7bf0792b1e89c5ae53f",
         "88622bb38940ed3f90c915207df2d93f02ccf02e4867d9bf14ad0bd58e5bebbf"
         "0cb7f397405eec3f682b0d8c5a2cb53f9458e46388dbf5bf2c3297f4af84d2bf"
         "889d89ac5201eb3fb74cb4b3e029d23f94db8021d6b3e6bf9a000715dadbe33f"
         "000000000000f03f0000000000000000"),
        ("e8e210d8b2fbefbf988c98c5f396a0bf754476c8a13dbb3fac9199437dd1efbf"
         "a7f4e117299be03f1afd9c459b5aebbfa568d1b3dca7e83f7a5b1f6dff65e4bf"
         "042036a00df9ef3f810b37f0b614a5bf705d1e7df897eb3f43782d2a6534e03f"
         "762f36642a0ce2bf4a515da6d46cea3f2a86aa6cebf5e7bf797c2f49e835e53f",
         "1fcb6ee1fb6ad63ffa4a6b2efff8edbf99c67b033b88ebbf79697ce5c9fde53f"
         "4d9c334b18c1f0bf9fba786fddd7c5bf530053263386fe3f070c80aa7fe3f03f"
         "60a5a09692fc913fc04b458d15f488bfeaa95406b681d4bf879c4b7bc84001c0"
         "84f82902797dcabfc455080f33a6f03fc70a2579f73deebfbb9df887b015e23f"
         "000000000000f03f0000000000000000"),
    ]
    rng = instance_rng(1047)
    for n, (roots, coefficients) in zip((4, 6, 8), frozen):
        p = recovered(np.round(rng.uniform(0, 2 * np.pi, n), 3))
        assert p.roots.tobytes().hex() == roots, n
        assert p.coefficients.tobytes().hex() == coefficients, n
