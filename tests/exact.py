"""Exact rational oracle for the per-axis PPT transforms.

Every float is a rational number, and so is every entry of the two
transposition blocks at an integer d.  The transforms below run in
``fractions.Fraction``, with no rounding anywhere, so the sign of each
entry they return is the true sign of the mathematical value that the
float kernels approximate.

The blocks follow from the partial transpose of one pair.  With F the
swap and E the projector onto the maximally entangled vector, the
normalized Werner-split projectors are (I + F) / (d (d + 1)) and
(I - F) / (d (d - 1)), the isotropic ones (I - E) / (d^2 - 1) and E, and
transposing the second member maps F to d E and E to F / d.  Row a of a
family's block expands the transpose of its projector a in the other
family:

    Werner-split:  ((d - 1) / d, 1 / d),  ((d + 1) / d, -1 / d)
    isotropic:     (1 / 2, 1 / 2),        ((d + 1) / 2, (1 - d) / 2)
"""

from fractions import Fraction
from itertools import product


def transpose_block(d: int, s: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """The transposition block of family s (0 Werner-split, 1 isotropic)
    at local dimension d, row by row, exactly."""
    d = Fraction(d)
    if s == 0:
        return ((d - 1) / d, 1 / d), ((d + 1) / d, -1 / d)
    return (Fraction(1, 2), Fraction(1, 2)), ((d + 1) / 2, (1 - d) / 2)


def transform(fidelities, sigma, mu, d: int) -> list[Fraction]:
    """The exact mu-transformed fidelities: for each transposed pair i,
    first pair first, t[.., c, ..] = t[.., 0, ..] * B[0][c] + t[.., 1, ..]
    * B[1][c] along axis i of t seen as a (2,) * K array."""
    k = len(sigma)
    t = [Fraction(x) for x in fidelities]
    for i, (m, s) in enumerate(zip(mu, sigma)):
        if not m:
            continue
        (b00, b01), (b10, b11) = transpose_block(d, s)
        half = 2 ** (k - 1 - i)
        for lo in range(0, 2**k, 2 * half):
            for j in range(lo, lo + half):
                x0, x1 = t[j], t[j + half]
                t[j], t[j + half] = x0 * b00 + x1 * b10, x0 * b01 + x1 * b11
    return t


def ppt_failures(fidelities, sigma, d: int, atol: float) -> dict[tuple, Fraction]:
    """{(mu, alpha): entry} for every exact transformed entry below -atol,
    over every pattern mu; mu and alpha are bit tuples, first bit most
    significant."""
    vectors = list(product((0, 1), repeat=len(sigma)))
    bound = -Fraction(atol)
    out = {}
    for mu in vectors:
        for alpha, entry in zip(vectors, transform(fidelities, sigma, mu, d)):
            if entry < bound:
                out[mu, alpha] = entry
    return out
