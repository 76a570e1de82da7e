"""End-to-end tests of the command-line interface contracts."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import circentropy
from circentropy import extremal
from circentropy.cli import main, parse_schedule


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
    # search and verify --precision import these themselves; a cold start of
    # every other command should not pay for them.
    src = os.path.dirname(os.path.dirname(os.path.abspath(circentropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, circentropy, circentropy.cli; "
            "print([m for m in ('scipy.optimize', 'mpmath') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


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


def test_suite_injected_error_continues(capsys):
    code, out = run_cli(capsys, "suite", "--degrees", "2..3", "--count", "4",
                        "--seed", "1", "--inject-bad", "1")
    summary = json.loads(out)
    assert summary["input_errors"] == 2
    assert summary["instances"] == 8
    assert code == 0  # input errors are reported, not counted as violations


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
])
def test_bad_arguments_are_usage_errors(capsys, argv):
    # exit 1 means an inequality violated or a search not converged
    code = main(list(argv))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
