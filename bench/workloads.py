"""The three benchmark workloads and their correctness gates.

Each workload turns the benchmark seed into an endless stream of batch
inputs, runs one batch per call (closed loop: the next batch starts only
after the previous one returns) and checks every result.  A batch holds
``BATCH_OPS`` operations; failed operations are reported, never dropped.
A run of S seconds takes the first ``batches(S)`` inputs of the stream, a
count fixed by the nominal rate ``OPS_PER_S`` (operations per second at
about reference speed), so the same seed and S give the same operations.

A workload's warm-up input is a smaller batch that takes every code path
the measured batches take; its result is not counted.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import circentropy as ce
from circentropy.corpus import instance_rng, random_circle_poly

LOWER_BOUND = 1.0 - math.log(2.0)
LOWER_BOUND_SLACK = 1e-9   # acceptance criterion 9's live lower-bound check
ROUTE_TOL = 1e-7           # criterion 11 route agreement, at N(p) = 1
GAP_TOL = 1e-6             # criterion 9 extremal gap
ANGLE_TOL = 1e-4           # criterion 9 angle-gap deviation


class LowerBoundBreach(Exception):
    """An objective value fell below 1 - log 2: the inequality itself broke."""


def derive_seed(*key: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a batch key."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


@dataclass
class BatchResult:
    """Outcome of one batch: operations run, the failed ones, and a payload.

    ``payload`` is compared between untraced and traced runs of the same
    input; ``problems`` lists output inconsistencies that make the run
    incorrect (as opposed to failed operations, which the gates count).
    The measuring loop fills in the wall time ``elapsed`` and ``scale``,
    the factor to reference speed (see ``calibration.py``).
    """

    attempted: int
    failures: list = field(default_factory=list)
    payload: object = None
    problems: list = field(default_factory=list)
    elapsed: float = 0.0
    scale: float = 1.0


class Workload:
    """Batch count of a run; subclasses set ``OPS_PER_S`` and ``BATCH_OPS``."""

    OPS_PER_S: float
    BATCH_OPS: int

    def batches(self, seconds: float) -> int:
        """Batches in a run of ``seconds``: at least one."""
        return max(1, round(seconds * self.OPS_PER_S / self.BATCH_OPS))


def _rate(value: float) -> dict:
    return {"value": value, "unit": "1/s"}


class Corpus(Workload):
    """Seeded ``suite`` corpus through the CLI, 20 x COUNT instances a chunk."""

    # Modules beyond the package that the workload imports; set-up time
    # includes them.
    imports = ("circentropy.cli",)
    DEGREES = range(1, 21)
    # With the CLI's default multiple fraction 0.1, ten instances per degree
    # keep one multiple-zero instance per degree in every chunk.
    COUNT = 10
    BATCH_OPS = len(DEGREES) * COUNT
    OPS_PER_S = 300.0

    def __init__(self, workdir: str):
        self.base = os.path.join(workdir, "suite")

    def inputs(self, seed: int):
        return ((derive_seed(seed, k), self.COUNT) for k in itertools.count())

    def warmup_input(self, seed: int):
        return derive_seed(seed), 1

    def run(self, item) -> BatchResult:
        suite_seed, count = item
        from circentropy import cli
        degrees = f"{self.DEGREES.start}..{self.DEGREES.stop - 1}"
        argv = ["suite", "--degrees", degrees, "--count", str(count),
                "--seed", str(suite_seed), "--out", self.base]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(self.base + ".csv") as fh:
            csv_text = fh.read()
        with open(self.base + ".json") as fh:
            json_text = fh.read()
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        summary = json.loads(json_text)
        failures = [
            {"n": int(r["n"]), "index": int(r["index"]), "seed": suite_seed,
             "status": r["status"]}
            for r in rows if r["status"] != "ok"
        ]
        expected = len(self.DEGREES) * count
        problems = []
        if len(rows) != expected or summary.get("instances") != expected:
            problems.append(f"suite seed {suite_seed}: {len(rows)} rows, "
                            f"summary says {summary.get('instances')}, "
                            f"expected {expected}")
        if summary.get("failures") != len(failures) or code != (1 if failures else 0):
            problems.append(f"suite seed {suite_seed}: exit {code} and summary "
                            f"failures {summary.get('failures')} disagree with "
                            f"{len(failures)} non-ok rows")
        return BatchResult(len(rows), failures, (csv_text, json_text), problems)

    @staticmethod
    def summarize(ops, seconds) -> dict:
        rate = statistics.median(k / t for k, t in zip(ops, seconds))
        return {"ops_per_s": _rate(rate), "corpus.instances_per_s": _rate(rate)}


class Crosscheck(Workload):
    """Spectral versus quadrature routes on unit-norm simple-zero instances."""

    imports = ()
    # Instances per cycle at each degree (8:4:2:1); a batch is one cycle.
    DEGREE_MIX = ((16, 8), (32, 4), (64, 2), (128, 1))
    BATCH_OPS = sum(k for _, k in DEGREE_MIX)
    OPS_PER_S = 10.5

    def inputs(self, seed: int):
        for cycle in itertools.count():
            batch = []
            for n, k in self.DEGREE_MIX:
                for i in range(cycle * k, (cycle + 1) * k):
                    p = random_circle_poly(n, instance_rng(seed, n, i), unit_norm=True)
                    batch.append((n, i, p))
            yield batch

    def warmup_input(self, seed: int):
        return [(16, -1, random_circle_poly(16, instance_rng(seed, 0), unit_norm=True))]

    def run(self, batch) -> BatchResult:
        failures = []
        payload = []
        for n, i, p in batch:
            a = p.coefficients
            try:
                rf = ce.ratio_functional(p)
                entropy_q = ce.log_pair_quadrature(a, a, b_roots=p.roots)
                jensen_q = ce.log_pair_quadrature(a, ce.polar_factor(p).q)
            except ce.CircEntropyError as exc:
                failures.append({"n": n, "index": i, "error": type(exc).__name__})
                payload.append(type(exc).__name__)
                continue
            values = (rf.entropy_integral, entropy_q, rf.jensen_integral, jensen_q)
            payload.append(values)
            worst = max(abs(values[0] - values[1]), abs(values[2] - values[3]))
            if not worst <= ROUTE_TOL:
                failures.append({"n": n, "index": i, "disagreement": worst,
                                 "jensen_route": getattr(rf, "routes", {}).get("jensen")})
        return BatchResult(len(batch), failures, payload)

    @staticmethod
    def summarize(ops, seconds) -> dict:
        rate = sum(ops) / sum(seconds)
        return {"ops_per_s": _rate(rate), "crosscheck.instances_per_s": _rate(rate)}


class Search(Workload):
    """Extremal search ``minimize(8, restarts=8)``, one solve a batch."""

    imports = ()
    N = 8
    RESTARTS = 8
    BATCH_OPS = 1
    OPS_PER_S = 1 / 3

    def inputs(self, seed: int):
        return ((derive_seed(seed, k), self.RESTARTS) for k in itertools.count())

    def warmup_input(self, seed: int):
        # One restart takes every code path of a solve at a fraction of its cost.
        return derive_seed(seed), 1

    def run(self, item) -> BatchResult:
        solve_seed, restarts = item
        res = ce.minimize(self.N, restarts=restarts, seed=solve_seed)
        if res.min_objective_seen < LOWER_BOUND - LOWER_BOUND_SLACK:
            raise LowerBoundBreach(
                f"minimize({self.N}, restarts={restarts}, seed={solve_seed}) saw "
                f"{res.min_objective_seen!r} < 1 - log 2 - {LOWER_BOUND_SLACK:g}"
            )
        failures = []
        if not (res.gap <= GAP_TOL and res.angle_gap_deviation <= ANGLE_TOL):
            failures.append({"seed": solve_seed, "gap": res.gap,
                             "angle_gap_deviation": res.angle_gap_deviation})
        payload = json.dumps(res.to_dict(), sort_keys=True)
        return BatchResult(1, failures, payload)

    @staticmethod
    def summarize(ops, seconds) -> dict:
        solve_s = statistics.median(seconds)
        return {"ops_per_s": _rate(1.0 / solve_s),
                "search.solve_s": {"value": solve_s, "unit": "s"},
                "search.solves": {"value": len(seconds), "unit": "count"}}


def make(name: str, workdir: str):
    """The workload called ``name``; ``workdir`` receives suite output files."""
    if name == "corpus":
        return Corpus(workdir)
    if name == "crosscheck":
        return Crosscheck()
    if name == "search":
        return Search()
    raise ValueError(f"unknown workload {name!r}")
