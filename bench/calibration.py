"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the same code can run twice as fast or as slow
from one second to the next, with CPU time tracking wall time: the host, not
this kernel's scheduler, takes the cycles.  The benchmark runs this loop,
which calls nothing from circentropy, around and during each batch and
rescales the batch's wall time to the reference speed at which the loop
takes exactly ``REFERENCE_S``.  Rescaled times compare runs made under
different host load; raw wall times are reported next to them.
"""

import contextlib
import signal
import time

import numpy as np

REFERENCE_S = 0.005

_ROOTS = np.exp(1j * np.linspace(0.0, 6.0, 9))
_GRID = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)


def loop_s() -> float:
    """Wall time of one pass over the reference work, about 5 ms."""
    start = time.perf_counter()
    # Small-array work driven from Python, like instance construction and
    # the extremal objective.
    acc = 0.0
    for _ in range(50):
        c = np.array([1.0 + 0j])
        for r in _ROOTS:
            nxt = np.zeros(c.size + 1, dtype=complex)
            nxt[1:] = c
            nxt[: c.size] -= r * c
            c = nxt
        acc += float(np.vdot(c, c).real)
    # Whole-array transcendental work, like a quadrature integrand.
    z = np.exp(1j * _GRID)
    acc += float(np.sum(np.log(np.abs(z - 0.5) ** 2)))
    if not np.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite value")
    return time.perf_counter() - start


class Sampler:
    """Reference-loop samples, taken on request and, inside ``timer()``, by
    a SIGALRM handler every ``INTERVAL_S`` of wall time.

    The handler runs in the measuring thread between bytecodes, so samples
    land inside long batches such as a search solve; ``paused`` accumulates
    the time spent sampling, which the caller subtracts from its timings.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append(loop_s())
            self.paused += time.perf_counter() - start
        finally:
            self._busy = False

    def scale_since(self, first: int) -> float:
        """Factor to reference speed from the samples from index ``first`` on."""
        window = self.samples[first:]
        return REFERENCE_S * len(window) / sum(window)

    @contextlib.contextmanager
    def timer(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
