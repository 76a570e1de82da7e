"""One set-up sample: a fresh interpreter imports, builds inputs, warms up.

Usage: python3 bench/probe.py WORKLOAD SEED WORKDIR

Prints one JSON line with CLOCK_MONOTONIC stamps taken when the imports
ended and when the warm-up batch ended, less the time spent sampling the
reference loop (see ``calibration.py``), and the samples themselves.  The
sampler runs from the moment numpy is loaded, so the parent can rescale the
whole set-up to reference speed.  The parent takes its own stamp just
before starting this process; the clock is system-wide, so the differences
span interpreter start-up too.
"""

import importlib
import json
import sys
import time

import bootstrap


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    bootstrap.prepare()
    import calibration

    sampler = calibration.Sampler()
    with sampler.timer():
        import workloads

        workload = workloads.make(name, workdir)
        for module in workload.imports:
            importlib.import_module(module)
        imported = _now() - sampler.paused
        workload.run(workload.warmup_input(seed))
        ready = _now() - sampler.paused
    print(json.dumps({"imported": imported, "ready": ready,
                      "samples": sampler.samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
