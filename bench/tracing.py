"""Spans around the calls into each circentropy module, recorded from outside.

The tracer replaces each listed public function, in every ``circentropy.*``
namespace that binds it, by a wrapper that records a span (name, start, end,
parent span, operation).  Nothing inside the package changes, so seeded
payloads stay byte-identical with tracing on.  Spans are kept in memory and
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Public functions timed per module.  A name missing from its module (deleted
# or renamed by a later refactor) is skipped and reports zero calls.
TRACED = {
    "cli": ("main",),
    "corpus": ("random_circle_poly",),
    "entropy": ("verify_main",),
    "log_integrals": (
        "ratio_functional", "log_pair_spectral", "poly_roots", "trig_square",
        "log_pair_quadrature", "circle_quadrature",
    ),
    "blaschke_moments": ("moments", "series_divide", "series_multiply"),
    "polycircle": (
        "from_roots", "expand_from_roots", "normalize_self_inversive",
        "polar_factor",
    ),
    "extremal": ("minimize", "objective"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Counts taken at the same boundaries as the spans.
COUNTERS = (
    "log_integrals.circle_quadrature.nodes",
    "log_integrals.circle_quadrature.levels",
    "log_integrals.poly_roots.ill_conditioned",
    "log_integrals.ratio_functional.quadrature_fallbacks",
)


class Tracer:
    """Records nested spans and boundary counts while installed."""

    def __init__(self):
        # One entry per span: [name, parent, op, start, end, error].
        self.spans: list[list] = []
        self._child_time: list[float] = []
        self._stack: list[int] = []
        self.op = -1
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        before = self._count_integrand if name == "log_integrals.circle_quadrature" else None
        after = self._count_fallback if name == "log_integrals.ratio_functional" else None
        ill = "log_integrals.poly_roots.ill_conditioned" if name == "log_integrals.poly_roots" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, tracer.op, time.perf_counter(), 0.0, None]
            tracer.spans.append(span)
            tracer._child_time.append(0.0)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                if ill is not None and span[5] == "IllConditioned":
                    tracer.counts[ill] += 1
                raise
            finally:
                span[4] = end = time.perf_counter()
                tracer._stack.pop()
                duration = end - span[3]
                if parent >= 0:
                    tracer._child_time[parent] += duration
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - tracer._child_time[sid]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_integrand(self, args, kwargs):
        """Swap ``f`` for a copy counting calls (levels) and points (nodes)."""
        counts = self.counts
        f = args[0] if args else kwargs["f"]

        @functools.wraps(f)
        def integrand(t):
            values = f(t)
            counts["log_integrals.circle_quadrature.levels"] += 1
            counts["log_integrals.circle_quadrature.nodes"] += len(values)
            return values

        if args:
            return (integrand,) + args[1:], kwargs
        return args, dict(kwargs, f=integrand)

    def _count_fallback(self, result) -> None:
        if getattr(result, "routes", {}).get("jensen") == "quadrature":
            self.counts["log_integrals.ratio_functional.quadrature_fallbacks"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every binding of each traced function across the package."""
        wrappers = {}
        for mod_name, fns in TRACED.items():
            module = importlib.import_module("circentropy." + mod_name)
            for fn_name in fns:
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "circentropy" or mod_name.startswith("circentropy.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -----------------------------------------------------------

    def per_op_metrics(self, ops: int) -> dict[str, float]:
        """Calls, span time and self time of every traced function, per op."""
        metrics = {}
        for name in SPAN_NAMES:
            metrics[name + ".calls"] = self.calls[name] / ops
            metrics[name + ".total_s"] = self.total_s[name] / ops
            metrics[name + ".self_s"] = self.self_s[name] / ops
        for name in COUNTERS:
            metrics[name] = self.counts[name] / ops
        return metrics

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (name, parent, op, start, end, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start - origin, "end": end - origin, "error": error,
                }) + "\n")
