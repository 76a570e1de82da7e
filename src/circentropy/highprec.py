"""Extended-precision reruns of the entropy functionals via mpmath.

Treats the stored root angles and leading coefficient of a CirclePoly as
exact and reruns the finite algebra of the spectral route on them.  It
shares the double-precision route's formulas but neither its code nor its
rounding, so it is an independent referee for the double-precision values.
The Jensen term is the difference E - polar, so its accuracy is absolute,
about max(1, N) 2^-(bits + 40), not relative to its own size; the report
states a bound on it.
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


def entropy_values_mp(p: CirclePoly, bits: int) -> dict:
    """Norm, entropy, Jensen term and polar functional at ``bits`` precision.

    With the autocorrelation c_m = sum_j a_{j+m} conj(a_j) and the power
    sums P_m = sum_tau tau^m of the roots, E = 2N log|a_n| - 2 Re sum_m
    c_m P_m / m.  The polar term is -2 Re sum_m c_m conj(d_{m-1}) / m for
    the series d = h'/h of h = q/p, h_k = conj(P_k)/n (h_0 = 1), and the
    Jensen term is E minus it; m runs over 1..n.  The algebra runs at
    ``bits + 40 + n`` bits: the expansion's partial products, taken in angle
    order, have coefficients up to 2^n, and as many bits can cancel.  Each
    value is rounded once to ``bits``.

    The Jensen term is computed as E - polar, both of size about N, so its
    error is absolute: besides its rounding to ``bits``, the error of E and
    polar at the working precision, about max(1, N) 2^-(bits + 40) once the
    n guard bits have absorbed the cancellation.  A tiny term keeps few or
    none of its digits: for the binomial z^3 + 1 at 60 bits it is 0.0,
    where 260 bits give 1.58e-31.
    """
    n = p.degree
    with mp.workprec(bits + 40 + n):
        angles = sorted(float(a) % (2 * np.pi) for a in np.angle(p.roots))
        roots = [mp.exp(1j * mp.mpf(a)) for a in angles]
        lead = mp.mpc(complex(p.leading))
        coeffs = _expand_mp(roots, lead)
        norm = mp.fsum([abs(c) ** 2 for c in coeffs])
        lags = [mp.fdot(coeffs[m:], map(mp.conj, coeffs)) for m in range(1, n + 1)]
        sums = [mp.mpc(0)] * n  # P_1..P_n
        for tau in roots:
            power = mp.mpc(1)
            for m in range(n):
                power *= tau
                sums[m] += power
        h = [mp.conj(s) / n for s in sums]  # h_1..h_n; h_0 = 1
        d = []
        for k in range(n):
            d.append((k + 1) * h[k] - mp.fdot(h[:k], reversed(d)))
        entropy = 2 * norm * mp.log(abs(lead)) - 2 * mp.re(
            mp.fdot(lags, [s / m for m, s in enumerate(sums, 1)]))
        polar = -2 * mp.re(mp.fdot(lags, [mp.conj(x) / m for m, x in enumerate(d, 1)]))
        with mp.workprec(bits):
            return {
                "norm": +norm,
                "entropy": +entropy,
                "jensen_term": entropy - polar,
                "polar_term": +polar,
            }


def entropy_report_mp(p: CirclePoly, bits: int) -> dict:
    """JSON-ready string rendering of :func:`entropy_values_mp`.

    Each value is printed with floor(0.3 bits) significant digits.  Next to
    the Jensen term, ``jensen_term_abs_error`` bounds the distance of its
    printed value from the exact one for the given roots and leading
    factor: |J| 10^(1 - digits), which covers both roundings of J, to
    ``bits`` and to the printed digits, plus max(1, N) 2^-(bits + 40) for
    the working precision.  It is printed with three digits.
    """
    vals = entropy_values_mp(p, bits=bits)
    digits = int(bits * 0.3)
    report = {"bits": bits}
    for key, value in vals.items():
        report[key] = mp.nstr(value, digits)
        if key == "jensen_term":
            with mp.workprec(bits):
                error = (abs(value) * mp.mpf(10) ** (1 - digits)
                         + max(1, vals["norm"]) * mp.mpf(2) ** -(bits + 40))
            report["jensen_term_abs_error"] = mp.nstr(error, 3)
    return report
