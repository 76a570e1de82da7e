"""Benchmark of circentropy's three user-facing jobs.

Usage:
    python3 bench/run.py --workload corpus|crosscheck|search|all \\
        --seed N --seconds S --trace 0|1

Each workload runs closed loop in one process and one thread: the next batch
starts only after the previous one has returned and been checked.  A run of
S seconds makes a fixed number of batches, the workload's nominal rate times
S (about S seconds of work at reference speed, see ``calibration.py``), so
the operations run, and those that fail, depend only on the seed and S and
never on how fast the machine happens to be.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of fresh
  interpreters running imports, input generation and one warm-up batch),
  ``peak_rss_mb`` and ``ops_per_s``.
* ``--trace 1`` runs the batches of an S/2-second run untraced, replays
  them with every traced function wrapped (see ``tracing.py``), checks
  that both runs produced identical payloads, and prints per-operation
  calls, span time and self time for each function, with
  ``trace.overhead_ratio`` = traced wall time / untraced wall time.  Spans
  go to ``bench/out/trace-WORKLOAD-seedN.jsonl``.
* ``--workload all`` runs the three workloads one after another, each in
  its own process, and prints every metric with the workload as prefix.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a report with the machine, the library versions and each failed
operation.  Failed operations (a suite row not ``ok``, routes disagreeing,
a search missing the extremum) are counted, not fatal; an objective value
below 1 - log 2 exits with status 3 and no result.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import bootstrap
import calibration

WORKLOADS = ("corpus", "crosscheck", "search")
SETUP_REPEATS = 5
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
CHILD_TIMEOUT_S = 170


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _git_commit() -> str | None:
    git_dir = os.path.join(bootstrap.ROOT, ".git")
    if not os.path.exists(git_dir):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
    }


def measure_setup(name: str, seed: int, workdir: str, sampler) -> dict:
    """Median set-up, import and warm-up time over fresh interpreters.

    Times are at reference speed, except ``wall_setup_s``: each probe is
    rescaled by the samples this process takes just before and after it and
    those the probe takes while it runs.
    """
    samples = {"setup_s": [], "setup.import_s": [], "setup.warmup_s": [],
               "wall_setup_s": []}
    for _ in range(SETUP_REPEATS):
        sampler.sample()
        before = sampler.samples[-1]
        start = _now()
        proc = subprocess.run(
            [sys.executable, PROBE, name, str(seed), workdir],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=bootstrap.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        stamps = json.loads(proc.stdout.splitlines()[-1])
        sampler.sample()
        window = [before, *stamps["samples"], sampler.samples[-1]]
        factor = calibration.REFERENCE_S * len(window) / sum(window)
        samples["setup_s"].append((stamps["ready"] - start) * factor)
        samples["setup.import_s"].append((stamps["imported"] - start) * factor)
        samples["setup.warmup_s"].append((stamps["ready"] - stamps["imported"]) * factor)
        samples["wall_setup_s"].append(stamps["ready"] - start)
    return {key: statistics.median(values) for key, values in samples.items()}


def run_batches(workload, inputs, count: int, sampler, tracer=None):
    """Closed loop over the first ``count`` of ``inputs``.

    Returns the inputs used and their checked results.  Each result carries
    its wall time without the sampler's pauses and the factor to reference
    speed from the samples taken just before, during and just after it.
    """
    items, results = [], []
    sampler.sample()
    for k, item in enumerate(itertools.islice(inputs, count)):
        if tracer is not None:
            tracer.op = k
        first = len(sampler.samples) - 1
        paused = sampler.paused
        t0 = time.perf_counter()
        result = workload.run(item)
        result.elapsed = time.perf_counter() - t0 - (sampler.paused - paused)
        sampler.sample()
        result.scale = sampler.scale_since(first)
        items.append(item)
        results.append(result)
    return items, results


def _per_layer_unit(name: str) -> str:
    return "s/op" if name.endswith("_s") else "1/op"


def run_workload(args) -> int:
    bootstrap.prepare()
    import tracing
    import workloads

    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=bootstrap.OUT_DIR) as workdir:
        workload = workloads.make(args.workload, workdir)
        for module in workload.imports:
            importlib.import_module(module)
        sampler = calibration.Sampler()
        try:
            setup = measure_setup(args.workload, args.seed, workdir, sampler)
            workload.run(workload.warmup_input(args.seed))
            if args.trace:
                # No timed samples here: they would land inside spans.
                items, plain = run_batches(
                    workload, workload.inputs(args.seed),
                    workload.batches(args.seconds / 2), sampler)
                tracer = tracing.Tracer()
                with tracer:
                    _, traced = run_batches(workload, items, len(items), sampler,
                                            tracer)
                results = plain + traced
            else:
                with sampler.timer():
                    _, results = run_batches(
                        workload, workload.inputs(args.seed),
                        workload.batches(args.seconds), sampler)
        except workloads.LowerBoundBreach as exc:
            sys.stderr.write(f"error: lower bound breached: {exc}\n")
            return 3

    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    problems = [p for r in results for p in r.problems]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "batches": len(results), "ops_attempted": attempted,
        "ops_failed": len(failures),
    }
    if args.trace:
        mismatched = [k for k, (a, b) in enumerate(zip(plain, traced))
                      if a.payload != b.payload]
        if mismatched:
            problems.append(f"traced payloads differ from untraced ones in "
                            f"batches {mismatched}")
        ops = sum(r.attempted for r in traced)
        metrics = {name: _metric(value, _per_layer_unit(name))
                   for name, value in tracer.per_op_metrics(ops).items()}
        metrics["setup.import_s"] = _metric(setup["setup.import_s"], "s")
        metrics["setup.warmup_s"] = _metric(setup["setup.warmup_s"], "s")
        metrics["trace.overhead_ratio"] = _metric(
            sum(r.elapsed * r.scale for r in traced)
            / sum(r.elapsed * r.scale for r in plain), "ratio")
        spans_path = os.path.join(
            bootstrap.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        report["spans"] = os.path.relpath(spans_path, bootstrap.ROOT)
        report["metrics"] = metrics
    else:
        ops = [r.attempted for r in results]
        summary = workload.summarize(ops, [r.elapsed * r.scale for r in results])
        metrics = {
            "setup_s": _metric(setup["setup_s"], "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ops_per_s": summary.pop("ops_per_s"),
        }
        report["metrics"] = dict(metrics, **summary)
        wall = workload.summarize(ops, [r.elapsed for r in results])
        wall["setup_s"] = _metric(setup["wall_setup_s"], "s")
        report["wall_clock"] = wall
        factors = [r.scale for r in results]
        report["speed_factor"] = {"median": statistics.median(factors),
                                  "min": min(factors), "max": max(factors)}
    report["failures"] = failures
    report["problems"] = problems
    print(json.dumps(report, indent=2))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; every metric prefixed by workload."""
    metrics = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return proc.returncode
        print("\n".join(lines[:-1]))
        report = json.loads("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in report["metrics"].items():
            metrics[key if key.startswith(name + ".") else f"{name}.{key}"] = metric
        metrics[f"{name}.ops_attempted"] = _metric(result["attempted"], "count")
        metrics[f"{name}.ops_failed"] = _metric(result["failed"], "count")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
