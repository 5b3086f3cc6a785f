"""Reference forms shared by the tests: the per-axis walk, exact and in
floats, and the dense helpers that several test files build states from.

Every float is a rational number, and so is every entry of the two
transposition blocks at an integer d.  :func:`walk` runs in the number
type it is given.  In ``fractions.Fraction`` there is no rounding
anywhere, so the sign of each entry the exact transforms return is the
true sign of the mathematical value that the float kernels approximate.
In floats, with the blocks formed as the library forms them, it is the
library's per-axis route operation for operation, so its results must be
equal bit for bit.

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
from functools import reduce
from itertools import product

import numpy as np

from invariant_states import Operator
from invariant_states.operators import _haar_sample
from invariant_states.selfcheck import invariant_projector


def transpose_block(d: int, s: int, num=Fraction) -> tuple[tuple, tuple]:
    """The transposition block of family s (0 Werner-split, 1 isotropic)
    at local dimension d, row by row, in the number type num: exactly in
    Fraction, and in float each entry one rounded operation on float(d),
    as :func:`invariant_states.projectors._transposes` forms it."""
    d = num(d)
    if s == 0:
        return ((d - 1) / d, 1 / d), ((d + 1) / d, -1 / d)
    return (num(1) / 2, num(1) / 2), ((d + 1) / 2, (1 - d) / 2)


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


def walk(values, blocks) -> list:
    """values @ (x)_i blocks[i], pair by pair, first pair first, in the
    number type of values and blocks: for block B of pair i, t[.., c, ..] =
    t[.., 0, ..] * B[0][c] + t[.., 1, ..] * B[1][c] along axis i of t seen
    as a (2,) * K array.  A block None leaves axis i as it is."""
    k, t = len(blocks), list(values)
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


def transform(fidelities, sigma, mu, d: int, num=Fraction) -> list:
    """The mu-transformed fidelities: the transposition block of every
    transposed pair, applied along its axis, in the number type num."""
    blocks = [transpose_block(d, s, num) if m else None for m, s in zip(mu, sigma)]
    return walk([num(x) for x in fidelities], blocks)


def reference_pt_matrix(mu, sigma, d: int) -> np.ndarray:
    """The transfer of pattern mu as reduce(np.kron, ...) over the float
    transposition blocks of the transposed pairs and the identity."""
    return reduce(np.kron, [np.array(transpose_block(d, s, float)) if m else np.eye(2) for m, s in zip(mu, sigma)])


def mixture(weights, sigma, d: int) -> list[Fraction]:
    """The exact fidelities weights @ (x)_i V_i of the vertex mixture with
    the given weights, one per vertex in index order."""
    return walk(map(Fraction, weights), [vertex_block(d, s) for s in sigma])


def barycentric(fidelities, sigma, d: int) -> list[Fraction]:
    """The exact barycentric coordinates p = f @ (x)_i B_i^-1 of the
    fidelities among the vertices; mixture's inverse."""
    return walk(map(Fraction, fidelities), [inverse_block(d, s) for s in sigma])


def hull_bound(alpha, sigma, d: int) -> Fraction:
    """The exact hull bound (1/2)^|alpha| (2/d)^|sigma.alpha| of fidelity
    alpha, which every twirled fully product state meets."""
    overlap = sum(s & a for s, a in zip(sigma, alpha))
    return Fraction(1, 2) ** sum(alpha) * Fraction(2, d) ** overlap


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


def member(d: int, s: int, a: int) -> Operator:
    """Member a of the one-pair family s, from the dense oracle."""
    return invariant_projector(d, (s,), (a,))


def flip(d: int) -> Operator:
    """The exchange operator F: the difference of the two Werner-split
    members, exactly."""
    return member(d, 0, 0) - member(d, 0, 1)


def random_state(d: int, n: int, seed: int) -> Operator:
    """A full-rank random density matrix on n qudits, M M^dag / Tr."""
    gen = np.random.default_rng(seed)
    side = d**n
    m = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    rho = m @ m.conj().T
    return Operator(d, n, rho / np.trace(rho))


def haar(d: int, rng) -> np.ndarray:
    """One Haar unitary from the kernel that mc_twirl samples with."""
    return _haar_sample(rng.generator().standard_normal((2, d, d)))
