"""Deterministic random instance generation for the verification corpora."""

from __future__ import annotations

import math

import numpy as np

from .polycircle import CirclePoly, from_angles, normalize_self_inversive, parseval_norm


def instance_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator seeded deterministically from a master seed and an index key.

    The per-instance derivation makes corpus runs reproducible regardless of
    scheduling or chunking.  The generator is
    ``default_rng(SeedSequence([master_seed, *key]))``, with the entropy
    given as the ``uint32`` words numpy would build from that list: each
    value split into little-endian 32-bit words, 0 as one word.  A negative
    value raises ValueError.
    """
    words = []
    for value in (master_seed, *key):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed values must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.random.default_rng(
        np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def random_circle_poly(
    n: int,
    rng: np.random.Generator,
    multiple: bool = False,
    unit_norm: bool = False,
) -> CirclePoly:
    """Random self-inversive polynomial of degree n with circle zeros.

    ``multiple`` forces at least one repeated zero: one angle is copied onto
    the next.  For n >= 8 a second copy follows with probability 1/2.  It
    adds a second repeated zero, or makes the first one triple, or leaves a
    single double zero, when it draws the first angle or the one before it.
    ``unit_norm`` rescales so that the squared norm is 1.  The one-row case
    of ``random_circle_stack``.
    """
    return random_circle_stack(n, [rng], [multiple], unit_norm)[0]


def random_circle_stack(
    n: int,
    rngs,
    multiple=None,
    unit_norm: bool = False,
) -> CirclePoly:
    """A stack of random polynomials of degree n, one row per generator.

    Row i takes from ``rngs[i]`` the draws ``random_circle_poly`` takes, in
    the same order, and equals its result bit for bit.  ``multiple`` holds
    one flag per row, or is None for all False.  The draws run row by row;
    the expansion, the normalization and the scaling run once over the
    stack.
    """
    rngs = list(rngs)
    flags = [False] * len(rngs) if multiple is None else multiple
    angles = np.empty((len(rngs), n))
    draws = np.empty((len(rngs), 2))  # modulus and phase of the leading factor
    for row, (rng, flag) in enumerate(zip(rngs, flags, strict=True)):
        angles[row] = _draw_angles(n, rng, flag)
        draws[row] = rng.random(2)  # as two rng.random() calls draw them
    leading = (0.5 + 1.5 * draws[:, 0]) * np.exp(2j * np.pi * draws[:, 1])
    p = normalize_self_inversive(from_angles(angles, leading))
    if unit_norm:
        p = p.scaled(1.0 / np.sqrt(parseval_norm(p)))
    return p


def _draw_angles(n: int, rng: np.random.Generator, multiple):
    """The root angles of one ``random_circle_poly`` instance."""
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    if multiple and n >= 2:
        j = int(rng.integers(0, n - 1))
        angles[j + 1] = angles[j]
        if n >= 8 and rng.random() < 0.5:
            k = int(rng.integers(0, n - 1))
            if k != j:
                angles[k + 1] = angles[k]
    return angles


def random_binomial(n: int, rng: np.random.Generator) -> CirclePoly:
    """A member c(omega + z^n) of the extremal family with N(p) = 1."""
    omega = np.exp(2j * np.pi * rng.random())
    zeta = np.exp(2j * np.pi * rng.random())
    angles = (np.angle(-omega) + 2 * np.pi * np.arange(n)) / n
    return from_angles(angles, zeta / math.sqrt(2.0))


def random_schur_triple(rng: np.random.Generator):
    """Random (phi, f, n) input for the weighted contraction check.

    n is drawn from 2..10; phi is a Blaschke product with up to 3 zeros drawn
    inside the disk of radius 0.95 and a unimodular constant; f is a random
    polynomial of degree 1..12 with vanishing constant coefficient.
    """
    n = int(rng.integers(2, 11))
    count = int(rng.integers(0, 4))
    radii = 0.95 * np.sqrt(rng.random(count))
    zeros = radii * np.exp(2j * np.pi * rng.random(count))
    gamma = np.exp(2j * np.pi * rng.random())
    deg = int(rng.integers(1, 13))
    f = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    f[0] = 0.0
    if not np.any(f):
        f[deg] = 1.0
    return zeros, complex(gamma), f, n
