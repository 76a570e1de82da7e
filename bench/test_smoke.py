"""Smoke test of the benchmark at minimal size (about a minute).

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bootstrap

bootstrap.prepare()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# Workload-specific end-to-end metrics printed besides those BENCHMARK.json lists.
NAMED = {
    "corpus.instances_per_s": "1/s",
    "crosscheck.instances_per_s": "1/s",
    "search.solve_s": "s",
    "search.solves": "count",
}


def _bench(*args, cwd=bootstrap.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_one_command_prints_every_end_to_end_metric():
    result = _result("--workload", "all", "--seed", "0", "--seconds", "0.1",
                     "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 3
    metrics = result["metrics"]
    expected = dict(NAMED)
    for workload in run.WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            expected[f"{workload}.{metric['name']}"] = metric["unit"]
        expected[f"{workload}.ops_attempted"] = "count"
        expected[f"{workload}.ops_failed"] = "count"
    assert {name: metrics[name]["unit"] for name in expected} == expected
    for workload in run.WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            assert metrics[f"{workload}.{metric['name']}"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _result("--workload", workload, "--seed", "0", "--seconds", "0.1",
                     "--trace", "1")
    # ``correct`` includes the traced/untraced payload comparison.
    assert result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    layer = result["metrics"]
    quadrature = layer["log_integrals.circle_quadrature.calls"]["value"]
    if workload == "crosscheck":
        assert quadrature > 0
    else:
        assert quadrature == 0
    assert layer["trace.overhead_ratio"]["value"] > 0


def test_tracer_wraps_every_binding_and_restores_them():
    import circentropy
    from circentropy import cli, entropy, extremal

    originals = (entropy.ratio_functional, cli.verify_main,
                 extremal.expand_from_roots, circentropy.minimize)
    with tracing.Tracer():
        wrapped = (entropy.ratio_functional, cli.verify_main,
                   extremal.expand_from_roots, circentropy.minimize)
        assert all(w is not o and w.__wrapped__ is o
                   for w, o in zip(wrapped, originals))
    assert (entropy.ratio_functional, cli.verify_main,
            extremal.expand_from_roots, circentropy.minimize) == originals


def test_known_failing_search_solve_is_counted():
    # minimize(8, restarts=8, seed=2) stops at a local minimum, gap 4.8e-2.
    _, results = run.run_batches(workloads.Search(), [(2, 8)], 1,
                                 run.calibration.Sampler())
    (failure,) = results[0].failures
    assert failure["seed"] == 2 and failure["gap"] > 1e-2


def test_lower_bound_breach_is_fatal(monkeypatch):
    real = workloads.ce.minimize

    def breaching(*args, **kwargs):
        res = real(*args, **kwargs)
        return type(res)(**dict(vars(res), min_objective_seen=0.0))

    monkeypatch.setattr(workloads.ce, "minimize", breaching)
    with pytest.raises(workloads.LowerBoundBreach):
        workloads.Search().run((0, 1))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(bootstrap.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "corpus", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
