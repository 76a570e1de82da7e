"""Extended-precision reruns of the entropy functionals via mpmath.

Treats the stored root angles and leading coefficient of a CirclePoly as
exact, recomputes the norm exactly, and reevaluates the entropy and Jensen
integrals by high-precision quadrature split at the root angles (where the
integrands have their logarithmic singularities).  Intended as an
independent recheck of the double-precision values, not as a fast path.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from .polycircle import CirclePoly


def _expand_mp(roots, leading):
    coeffs = [leading]
    for tau in roots:
        nxt = [mp.mpc(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= tau * c
        coeffs = nxt
    return coeffs


def _eval_mp(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def entropy_values_mp(p: CirclePoly, bits: int = 200) -> dict:
    """Norm, entropy, Jensen term, and polar functional at ``bits`` precision."""
    with mp.workprec(bits + 40):
        angles = sorted(float(a) % (2 * np.pi) for a in np.angle(p.roots))
        roots = [mp.exp(1j * mp.mpf(a)) for a in angles]
        lead = mp.mpc(complex(p.leading))
        coeffs = _expand_mp(roots, lead)
        n = p.degree
        norm = mp.fsum([abs(c) ** 2 for c in coeffs])
        qcoeffs = [c * mp.mpf(n - j) / n for j, c in enumerate(coeffs[:n])]
        splits = [mp.mpf(0)] + [mp.mpf(a) for a in angles] + [2 * mp.pi]

        def make_integrand(bcoeffs):
            def f(t):
                z = mp.exp(1j * t)
                a2 = abs(_eval_mp(coeffs, z)) ** 2
                if a2 == 0:
                    return mp.mpf(0)
                b2 = abs(_eval_mp(bcoeffs, z)) ** 2
                if b2 == 0:
                    return mp.mpf(0)
                return a2 * mp.log(b2)
            return f

        entropy = mp.quad(make_integrand(coeffs), splits) / (2 * mp.pi)
        jensen = mp.quad(make_integrand(qcoeffs), splits) / (2 * mp.pi)
        with mp.workprec(bits):
            return {
                "norm": +norm,
                "entropy": +entropy,
                "jensen_term": +jensen,
                "polar_term": entropy - jensen,
            }


def entropy_report_mp(p: CirclePoly, bits: int = 200) -> dict:
    """JSON-ready string rendering of :func:`entropy_values_mp`."""
    vals = entropy_values_mp(p, bits=bits)
    return {"bits": bits, **{k: mp.nstr(v, int(bits * 0.3)) for k, v in vals.items()}}
