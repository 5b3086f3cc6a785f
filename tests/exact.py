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

The twirled fully product states of one pair span a segment whose two
ends, the vertices, are the rows of V_W = ((1, 0), (1/2, 1/2)) and V_I =
((1, 0), ((d - 1) / d, 1 / d)).  The vertices of K pairs are the rows of
their Kronecker product, so the barycentric coordinates of fidelities f
among them are p = f @ (x)_i B_i^-1, with B_W^-1 = ((1, 0), (-1, 2)) and
B_I^-1 = ((1, 0), (1 - d, d)).  The fully separable invariant states are
the points with p >= 0.
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


def vertex_block(d: int, s: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """V_s, the two vertices of family s for one pair, row by row, exactly."""
    if s == 0:
        return (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))
    return (Fraction(1), Fraction(0)), (1 - Fraction(1, d), Fraction(1, d))


def inverse_block(d: int, s: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """B_s^-1, the inverse of vertex_block(d, s), row by row, exactly."""
    if s == 0:
        return (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(2))
    return (Fraction(1), Fraction(0)), (Fraction(1 - d), Fraction(d))


def _along(values, k: int, blocks) -> list[Fraction]:
    # for each pair i with a block B, first pair first, t[.., c, ..] =
    # t[.., 0, ..] * B[0][c] + t[.., 1, ..] * B[1][c] along axis i of t seen
    # as a (2,) * K array; None leaves axis i as it is
    t = [Fraction(x) for x in values]
    for i, block in enumerate(blocks):
        if block is None:
            continue
        (b00, b01), (b10, b11) = block
        half = 2 ** (k - 1 - i)
        for lo in range(0, 2**k, 2 * half):
            for j in range(lo, lo + half):
                x0, x1 = t[j], t[j + half]
                t[j], t[j + half] = x0 * b00 + x1 * b10, x0 * b01 + x1 * b11
    return t


def transform(fidelities, sigma, mu, d: int) -> list[Fraction]:
    """The exact mu-transformed fidelities: the transposition block of
    every transposed pair, applied along its axis."""
    return _along(fidelities, len(sigma), [transpose_block(d, s) if m else None for m, s in zip(mu, sigma)])


def mixture(weights, sigma, d: int) -> list[Fraction]:
    """The exact fidelities weights @ (x)_i V_i of the vertex mixture with
    the given weights, one per vertex in index order."""
    return _along(weights, len(sigma), [vertex_block(d, s) for s in sigma])


def barycentric(fidelities, sigma, d: int) -> list[Fraction]:
    """The exact barycentric coordinates p = f @ (x)_i B_i^-1 of the
    fidelities among the vertices; mixture's inverse."""
    return _along(fidelities, len(sigma), [inverse_block(d, s) for s in sigma])


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
