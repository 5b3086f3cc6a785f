"""Projector families spanning the locally invariant operator algebras.

For one qudit pair there are two natural resolutions of the identity:

* the symmetric/antisymmetric split built from the exchange operator F,
  which spans everything commuting with U (x) U, and
* the split built from the maximally entangled projector E, namely
  {I - E, E}, which spans everything commuting with U (x) conj(U).

For K pairs arranged as slots (i, K+i) of a 2K-slot space, choosing one
resolution per pair (a bit vector sigma) and one member per pair (a bit
vector alpha) yields 2^K families of 2^K mutually orthogonal projectors,
each family summing to the identity.  Every K-pair closed form (traces,
moment coefficients, partial-transposition maps) is the Kronecker product
of the one-pair forms in :func:`pair_forms`, first pair most significant.

Each family member also factors as a product over pairs of a_i I + b_i X_i,
with X_i = F_i for a Werner-split pair and X_i = d E_i for an isotropic
one.  Expanding the product writes it as a combination of the 2^K
"moment" operators X_S = prod_{i in S} X_i, whose coefficients form a
Kronecker product of 2 x 2 blocks (:func:`moment_expansion`).  Every X_S
is a 0/1 matrix with exactly d^(2K) nonzero entries, so overlaps
Tr(rho P) and mixtures of family members reduce to gathers and scatters
on those entries; no dense projector is formed.  The independent dense
oracle, :func:`.selfcheck.invariant_projector`, fills F and E entry by
entry and takes Kronecker products.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable

import numpy as np

from .bits import all_vectors, as_bits
from .operators import _side, dimension


def pair_forms(d: int, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of one pair in family s: Werner split if s = 0, isotropic if 1.

    Returns ``(moments, traces, transpose)``, each indexed by the member
    alpha of the pair's family:

    * ``moments``: 2 x 2 block whose row alpha holds (a, b) with
      P_alpha = a I + b X, where X = F for s = 0 and X = d E for s = 1;
    * ``traces``: Tr P_alpha;
    * ``transpose``: 2 x 2 map of fidelities under transposition of the
      pair's second member; row alpha expands the transposed normalized
      P_alpha in family 1 - s.  Its rows sum to 1, and the blocks of the
      two families are mutual inverses.

    Entries are computed in floats; every d <= 2**53 is exactly a float,
    and every entry is finite.
    """
    d = float(dimension(d))
    traces = [d * (d + 1.0) / 2, d * (d - 1.0) / 2] if s == 0 else [(d - 1.0) * (d + 1.0), 1.0]
    return _moment_blocks(d)[s, ..., 0], np.array(traces), _transposes(d)[s, ..., 0]


def _moment_blocks(d: float) -> np.ndarray:
    # as _transposes, for the moments blocks of pair_forms
    return np.array([0.5, 0.5, 0.5, -0.5, 1.0, -1.0 / d, 0.0, 1.0 / d]).reshape(2, 2, 2, 1)


def _transposes(d: float) -> np.ndarray:
    # the transpose blocks of pair_forms for both families, Werner first, for
    # a validated d, each shaped (2, 2, 1) as simplex._step takes it; on its
    # own so that the per-pair PPT steps need not build the other forms
    d = float(d)
    entries = [(d - 1.0) / d, 1.0 / d, (d + 1.0) / d, -1.0 / d, 0.5, 0.5, (1.0 + d) / 2, (1.0 - d) / 2]
    return np.array(entries).reshape(2, 2, 2, 1)


def moment_expansion(d: int, sigma: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Family projectors as combinations of the moment operators X_S.

    Returns ``(blocks, patterns)``.  The Kronecker product of the moments
    blocks ``blocks[sigma_i, :, :, 0]`` of :func:`pair_forms`, never built,
    is C with P_alpha = sum_S C[alpha, S] X_S, both indices in the bit
    encoding of :mod:`.bits` (1 in position i of S selects X_i).  Row S of
    ``patterns``, shaped (2^K, d^(2K)), lists the flat row-major positions
    of the entries of X_S in a d^(2K)-sided matrix, all of which equal 1.
    Each X_S is real symmetric, so Tr(rho X_S) sums the entries of rho at
    the positions in row S.
    """
    d, sigma = dimension(d), as_bits(sigma, name="sigma")
    k = len(sigma)
    side = _side(d, 2 * k)
    first, second = np.divmod(np.arange(d * d), d)
    # per pair, the flat positions of the entries of I and X on slots
    # (i, K+i) in a row-major side x side matrix
    offsets = []
    for i, s in enumerate(sigma):
        wa, wb = d ** (2 * k - 1 - i), d ** (k - 1 - i)  # place values of the two slots
        row = first * wa + second * wb
        if s == 0:
            x = row * side + second * wa + first * wb  # F = sum |ab><ba|
        else:
            x = (first * side + second) * (wa + wb)  # d E = sum |aa><bb|
        offsets.append((row * (side + 1), x))
    patterns = np.stack(
        [
            reduce(np.add.outer, [offsets[i][bit] for i, bit in enumerate(subset)]).reshape(-1)
            for subset in all_vectors(k)
        ]
    )
    return _moment_blocks(d), patterns


def projector_trace(d: int, sigma: Iterable[int], alpha: Iterable[int]) -> float:
    """Closed-form trace of the dense :func:`.selfcheck.invariant_projector`:
    the product over pairs of the traces in :func:`pair_forms`.

    Per pair: d(d + (-1)^alpha)/2 for a Werner-split factor, and 1 or
    d^2 - 1 for the entangled projector or its complement.  A count
    beyond the float range raises ValueError.
    """
    sigma = as_bits(sigma, name="sigma")
    alpha = as_bits(alpha, len(sigma), "alpha")
    trace = math.prod(float(pair_forms(d, s)[1][a]) for s, a in zip(sigma, alpha))  # inf without a warning
    if trace == math.inf:
        raise ValueError(f"projector trace beyond the float range at d={d}, K={len(sigma)}")
    return trace
