"""The simplex of locally invariant states and its separability geometry.

A 2K-qudit state that commutes with every U_1 (x) ... (x) U_K (x) W_1 (x)
... (x) W_K, where W_i is U_i or conj(U_i) according to a per-pair bit
sigma_i, is a convex mixture of the 2^K normalized family projectors for
that sigma.  The mixture weights, called fidelities, are the coordinates
used throughout this module:

* states map to points of a (2^K - 1)-simplex (:class:`StateDescriptor`);
* group averaging (twirling) maps any state to its fidelity vector;
* partial transposition of selected pairs acts on fidelities through
  small transfer matrices obtained as Kronecker products of two 2 x 2
  blocks; positivity of the transformed vector is the PPT test;
* extremal fully product states land on computable points, whose convex
  hull gives linear inequality bounds (necessary separability conditions).

Bit-vector arguments follow the convention of :mod:`.bits`: the first bit
is the most significant in fidelity indexing, and a 1 in position i of a
transposition pattern transposes the second member of pair i (slot K+i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

import numpy as np

from .bits import Bits, all_vectors, as_bits, bits_str, label
from .operators import (
    HERMITICITY_ATOL,
    Operator,
    Rng,
    _haar_sample,
    _integer,
    _readonly,
    basis_ket,
    dimension,
    partial_trace,
    partial_transpose,
    projector_onto,
    tensor_product,
)
from .projectors import moment_expansion, pair_forms

FIDELITY_NEG_ATOL = 1e-12
FIDELITY_SUM_ATOL = 1e-10
PPT_ATOL = 1e-12


@dataclass(frozen=True)
class StateDescriptor:
    """A point of the invariant-state simplex: (d, sigma, fidelities).

    fidelities has length 2^K for K = len(sigma), is indexed by the bit
    encoding of :mod:`.bits`, and must be finite, nonnegative (within
    1e-12) and sum to 1 (within 1e-10).  The described state is the
    corresponding mixture of normalized family projectors; see
    :func:`synthesize`.
    """

    d: int
    sigma: Bits
    fidelities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", dimension(self.d))
        object.__setattr__(self, "sigma", as_bits(self.sigma, name="sigma"))
        f = _readonly(np.ravel(self.fidelities), float)
        if f.size != 2 ** len(self.sigma):
            raise ValueError(f"need 2**K = {2 ** len(self.sigma)} fidelities, got {f.size}")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"fidelities must be finite, got {f}")
        # written so that a NaN fails each comparison
        if not float(f.min()) >= -FIDELITY_NEG_ATOL:
            raise ValueError(f"fidelities must be nonnegative, got min {f.min():.3e}")
        with np.errstate(over="ignore"):  # finite entries may sum to inf, which fails
            total = float(f.sum())
        if not abs(total - 1.0) <= FIDELITY_SUM_ATOL:
            raise ValueError(f"fidelities must sum to 1, got {total:.12g}")
        object.__setattr__(self, "fidelities", f)

    @property
    def K(self) -> int:
        return len(self.sigma)


def _check_state_shape(n: int, sigma) -> Bits:
    sigma = as_bits(sigma, name="sigma")
    if n != 2 * len(sigma):
        raise ValueError(f"state acts on {n} subsystems but sigma has {len(sigma)} pairs")
    return sigma


def extract_fidelities(rho: Operator, sigma: Iterable[int]) -> np.ndarray:
    """Raw overlaps Tr(rho P) with each family projector, no validation.

    Unlike :func:`fidelities_of` this never rejects negative entries, so
    it can be used on partial transposes of states.  The overlaps are the
    per-pair change of basis applied to the moments Tr(rho X_S); see
    :func:`.projectors.moment_expansion`.
    """
    coeffs, _, moments = _moments(rho.mat.reshape(-1).take, rho.d, _check_state_shape(rho.n, sigma))
    return coeffs @ moments.real


def _moments(take, d: int, sigma: Bits) -> tuple[np.ndarray, complex, np.ndarray]:
    # the change of basis, the trace and the complex moments Tr(rho X_S),
    # from one gather; take(positions) returns the entries of rho at flat
    # row-major positions, in the shape of positions
    coeffs, patterns = moment_expansion(d, sigma)
    entries = take(patterns)
    # X_S for the empty S is the identity, so row 0 holds the diagonal;
    # summed in index order, as np.trace sums it
    trace = complex(entries[0, np.argsort(patterns[0])].sum())
    return coeffs, trace, entries.sum(axis=1)


def _fidelities(take, d: int, n: int, sigma) -> StateDescriptor:
    # fidelities_of for the state on n qudits whose entries take reads
    # (see _moments), so that a caller can read them from a file
    sigma = _check_state_shape(n, sigma)
    coeffs, tr, moments = _moments(take, d, sigma)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"state must have unit trace, got {tr:.12g}")
    worst = float(np.max(np.abs(moments.imag)))
    if not worst <= HERMITICITY_ATOL:
        raise ValueError(f"state is not Hermitian: a moment Tr(rho X_S) has imaginary part {worst:.3e}")
    return StateDescriptor(d, sigma, coeffs @ moments.real)


def fidelities_of(rho: Operator, sigma: Iterable[int]) -> StateDescriptor:
    """Fidelity coordinates of a unit-trace state in the sigma family: the
    descriptor of its exact twirl (group average over the sigma symmetry).

    The average is the orthogonal projection onto the span of the family
    projectors, so it is fully determined by the overlaps Tr(rho P): no
    integration is performed.  Twirling an already invariant state returns
    its own descriptor, so synthesizing the result reproduces rho.

    The moments Tr(rho X_S) must be real within 1e-10, as for a Hermitian
    rho, or ValueError is raised.  The part of rho outside the invariant
    algebra is not read, so neither its Hermiticity nor positivity is checked.
    """
    return _fidelities(rho.mat.reshape(-1).take, rho.d, rho.n, sigma)


def _scatter(desc: StateDescriptor) -> tuple[np.ndarray, np.ndarray]:
    # the entries of synthesize(desc) that can be nonzero: sorted flat
    # row-major positions and their real values; every other entry is 0.
    # Each value sums the weights of the X_S covering it in pattern order
    # from +0.0, so every caller gets the same bits.
    coeffs, patterns = moment_expansion(desc.d, desc.sigma)
    traces = reduce(np.kron, [pair_forms(desc.d, s)[1] for s in desc.sigma])
    weights = (desc.fidelities / traces) @ coeffs
    positions, slots = np.unique(patterns, return_inverse=True)
    values = np.zeros(positions.size)
    for weight, row in zip(weights, slots.reshape(patterns.shape)):
        values[row] += weight  # slots within one pattern are distinct
    return positions, values


def synthesize(desc: StateDescriptor) -> Operator:
    """Dense state described by a simplex point: sum of f * P / Tr(P).

    Written as sum_S c_S X_S over the moment operators, one scatter of a
    coefficient per X_S into a zeroed matrix.
    """
    positions, values = _scatter(desc)
    side = desc.d ** (2 * desc.K)
    mat = np.zeros((side, side), dtype=np.complex128)
    mat.reshape(-1)[positions] = values
    mat.setflags(write=False)  # handed to Operator without a copy
    return Operator(desc.d, 2 * desc.K, mat)


def mc_twirl(rho: Operator, sigma: Iterable[int], samples: int, rng: Rng) -> Operator:
    """Monte-Carlo estimate of the group average by Haar sampling.

    Averages V rho V^dag over ``samples`` draws, where V applies an
    independent Haar unitary U_i to slot i and U_i or conj(U_i) to slot
    K+i according to sigma_i.  The estimator is unbiased and deterministic
    in ``rng``; sample s consumes the sub-stream ``rng.at(s)``, so results
    do not depend on how the sample range might be partitioned.
    """
    sigma = _check_state_shape(rho.n, sigma)
    samples = _integer(samples, "sample count")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    k = len(sigma)
    d = rho.d
    acc = np.zeros_like(rho.mat)
    for s in range(samples):
        gen = rng.at(s).generator()
        us = [_haar_sample(gen, d) for _ in range(k)]
        ws = [u if bit == 0 else u.conj() for u, bit in zip(us, sigma)]
        v = reduce(np.kron, us + ws)
        acc += v @ rho.mat @ v.conj().T
    return Operator(d, 2 * k, acc / samples)


# ---------------------------------------------------------------------------
# fidelity transfer under partial transposition


def pt_matrix(mu: Iterable[int], nu: Iterable[int], d: int) -> np.ndarray:
    """Linear action of a pair-wise partial transposition on fidelities.

    Returns the read-only real 2^K x 2^K matrix whose row alpha expands the
    mu-transposed normalized projector alpha of family nu in the target
    family xor(mu, nu).  Every row sums to 1, but entries may be negative,
    which is what makes the PPT test nontrivial.  It is the Kronecker
    product over pairs, first pair most significant, of the identity
    where mu_i = 0 and of the transposition block of family nu_i in
    :func:`.projectors.pair_forms` where mu_i = 1.
    """
    mu = as_bits(mu, name="mu")
    nu = as_bits(nu, len(mu), "nu")
    d = dimension(d)
    mat = reduce(np.kron, [pair_forms(d, n)[2] if m else np.eye(2) for m, n in zip(mu, nu)])
    mat.setflags(write=False)
    return mat


def transform_fidelities(desc: StateDescriptor, mu: Iterable[int]) -> np.ndarray:
    """Fidelity vector of the mu-partial transpose of a described state.

    The result lives in the family xor(mu, desc.sigma).  Entries always
    sum to 1 but may be negative; a negative entry certifies that the
    transposed operator is not positive semidefinite.  For a d so large
    that the transfer overflows, it raises ValueError instead of returning
    non-finite entries.
    """
    mu = as_bits(mu, desc.K, "mu")
    with np.errstate(over="ignore", invalid="ignore"):
        t = desc.fidelities @ pt_matrix(mu, desc.sigma, desc.d)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"transfer of mu={bits_str(mu)} overflows at d = {float(desc.d):.3g}")
    return t


# ---------------------------------------------------------------------------
# separability criteria


@dataclass(frozen=True)
class ConstraintFailure:
    constraint: str
    value: float
    bound: float


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of one criterion: satisfied iff no constraint failed.

    ``failures`` lists each violated inequality with its raw margin, so
    callers can apply their own thresholds.  ``necessary_only`` marks
    criteria that can only certify non-separability, never separability.
    """

    criterion: str
    failures: tuple[ConstraintFailure, ...]
    necessary_only: bool = False
    biseparable: Optional["SeparabilityVerdict"] = None

    @property
    def satisfied(self) -> bool:
        return not self.failures

    @property
    def outcome(self) -> str:
        return "satisfied" if self.satisfied else "violated"


def check_ppt(desc: StateDescriptor, mu: Iterable[int]) -> SeparabilityVerdict:
    """Positivity of the mu-partial transpose, decided on fidelities.

    The transposed state is positive semidefinite exactly when every
    transformed fidelity is nonnegative; entries below -1e-12 fail.
    """
    mu = as_bits(mu, desc.K, "mu")
    t = transform_fidelities(desc, mu)
    name = bits_str(mu)
    failures = tuple(
        ConstraintFailure(f"mu={name},alpha={label(i, desc.K)}", float(t[i]), 0.0)
        for i in np.flatnonzero(t < -PPT_ATOL)
    )
    return SeparabilityVerdict(f"ppt:{name}", failures)


def check_ppt_all(desc: StateDescriptor) -> SeparabilityVerdict:
    """PPT under every transposition pattern; the full-separability test.

    An invariant state is separable into all 2K parties exactly when all
    2^K patterns pass.  The all-ones sub-verdict doubles as the
    biseparability test (separability across the cut grouping all first
    members) and is reported alongside.
    """
    failures = []
    for mu in all_vectors(desc.K):
        verdict = check_ppt(desc, mu)
        failures.extend(verdict.failures)
    # all_vectors ends with the all-ones pattern, the biseparability test
    return SeparabilityVerdict(
        "ppt-all", tuple(failures), biseparable=SeparabilityVerdict("bisep", verdict.failures)
    )


def check_polytope(desc: StateDescriptor) -> SeparabilityVerdict:
    """Linear bounds carved out by extremal product states.

    Checks every fidelity against its hull bound (1/2^|alpha|) *
    (2/d)^|sigma*alpha| and the monotonicity f_alpha <= f_beta whenever
    |alpha| > |beta|.  These conditions are necessary for full
    separability; they can hold for states that fail a PPT test, so the
    verdict is flagged ``necessary_only``.
    """
    k, f = desc.K, desc.fidelities
    labels = np.array(list(all_vectors(k)))
    weight = labels.sum(axis=1)
    overlap = labels @ np.array(desc.sigma)
    # Python float powers: numpy's array ** can differ from them in the last
    # bit, and bounds are printed with 17 digits
    halves = np.array([0.5**w for w in range(k + 1)])
    ratios = np.array([(2.0 / desc.d) ** o for o in range(k + 1)])
    bound = halves[weight] * ratios[overlap]
    failures = [
        ConstraintFailure(f"bound,alpha={label(i, k)}", float(f[i]), float(bound[i]))
        for i in np.flatnonzero(f > bound + PPT_ATOL)
    ]
    order = (weight[:, None] > weight[None, :]) & (f[:, None] > f[None, :] + PPT_ATOL)
    failures.extend(
        ConstraintFailure(f"order,alpha={label(i, k)},beta={label(j, k)}", float(f[i]), float(f[j]))
        for i, j in np.argwhere(order)
    )
    return SeparabilityVerdict("polytope", tuple(failures), necessary_only=True)


# ---------------------------------------------------------------------------
# extremal product states


def _check_overlaps(overlaps, k: int) -> np.ndarray:
    a = _readonly(np.ravel(overlaps), float)
    if a.size != k:
        raise ValueError(f"need {k} overlaps, got {a.size}")
    # written so that a NaN fails the comparison
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError(f"overlaps must lie in [0, 1], got {a}")
    return a


def extremal_fidelities(sigma: Iterable[int], overlaps, d: int) -> np.ndarray:
    """Fidelities of a transposed fully product state with given overlaps.

    overlaps[i] is the squared inner product a_i between the two pure
    states of pair i.  The vector is the Kronecker product over pairs of
    (1 + a_i, 1 - a_i) / 2 for a Werner-split pair and (1 - a_i / d,
    a_i / d) for an isotropic one.  The output is a valid fidelity vector
    and, being a projection of a separable state, satisfies every
    separability criterion in this module.
    """
    sigma = as_bits(sigma, name="sigma")
    a = _check_overlaps(overlaps, len(sigma))
    d = float(dimension(d))
    # each Werner factor carries a 1/2, which scales exactly; a_i / d is
    # written 1 - (1 - a_i / d), the rounding that tests/test_pair_forms.py pins
    factors = [
        np.array([1.0 + a_i, 1.0 - a_i]) * 0.5
        if s == 0
        else np.array([1.0 - a_i / d, 1.0 - (1.0 - a_i / d)])
        for s, a_i in zip(sigma, a)
    ]
    return reduce(np.kron, factors)


def extremal_product_state(d: int, sigma: Iterable[int], overlaps) -> Operator:
    """Dense realization of the product state behind :func:`extremal_fidelities`.

    Pair i uses |0> on the first member and cos(t)|0> + sin(t)|1> on the
    second with cos(t)^2 = overlaps[i]; the sigma pattern of transposes is
    then applied to the second members.  Intended as the brute-force
    counterpart for checking the closed form.
    """
    sigma = as_bits(sigma, name="sigma")
    a = _check_overlaps(overlaps, len(sigma))
    k = len(sigma)
    first = [basis_ket(d, [0]) for _ in range(k)]
    second = [basis_ket(d, [0]) * np.sqrt(a_i) + basis_ket(d, [1]) * np.sqrt(1.0 - a_i) for a_i in a]
    factors = [projector_onto(d, v) for v in first + second]
    rho = reduce(tensor_product, factors)
    transposed = [k + i for i in range(1, k + 1) if sigma[i - 1] == 1]
    return partial_transpose(rho, transposed)


def biseparable_fidelities(proj_a: Operator, proj_b: Operator) -> np.ndarray:
    """Werner-family fidelities of the twirled product of two pair projectors.

    proj_a and proj_b are projectors on two-qudit spaces, placed on slots
    (1, 2) and (3, 4); the pairs of the four-slot space are then (1, 3)
    and (2, 4).  The four fidelities have the closed form

        q = 1/4 * (1 +- s1 +- s2 +- s12)

    with s1, s2 the overlaps of the single-slot marginals and s12 the full
    overlap Tr(proj_a proj_b); the signs follow the fidelity index.  These
    states are separable across the (1,2)|(3,4) cut by construction, so q
    always passes the all-ones PPT test, yet q can fail other patterns.
    """
    if proj_a.n != 2 or proj_b.n != 2:
        raise ValueError("both operators must act on exactly two subsystems")
    if proj_a.d != proj_b.d:
        raise ValueError(f"local dimension mismatch: {proj_a.d} vs {proj_b.d}")
    for name, p in (("first", proj_a), ("second", proj_b)):
        dev = float(np.max(np.abs((p @ p - p).mat)))
        if dev > 1e-10:
            raise ValueError(f"{name} operator is not a projector (deviation {dev:.3e})")
    s0 = (proj_a.trace() * proj_b.trace()).real  # equals 1 for rank-1 inputs
    s1 = (partial_trace(proj_a, {1}) @ partial_trace(proj_b, {1})).trace().real
    s2 = (partial_trace(proj_a, {2}) @ partial_trace(proj_b, {2})).trace().real
    s12 = (proj_a @ proj_b).trace().real
    return 0.25 * np.array(
        [
            s0 + s1 + s2 + s12,
            s0 - s1 + s2 - s12,
            s0 + s1 - s2 - s12,
            s0 - s1 - s2 + s12,
        ]
    )


# ---------------------------------------------------------------------------
# reductions


def _pair_index(desc: StateDescriptor, i) -> int:
    i = _integer(i, "pair index")
    if not 1 <= i <= desc.K:
        raise ValueError(f"pair index {i} out of range 1..{desc.K}")
    return i


def reduce_pair(desc: StateDescriptor, i: int) -> StateDescriptor:
    """Trace out both members of pair i; fidelities marginalize over bit i."""
    if desc.K < 2:
        raise ValueError("reduction needs at least two pairs")
    i = _pair_index(desc, i)
    marginal = desc.fidelities.reshape((2,) * desc.K).sum(axis=i - 1).reshape(-1)
    sigma = desc.sigma[: i - 1] + desc.sigma[i:]
    return StateDescriptor(desc.d, sigma, marginal)


def maximally_mixed_pair(d: int) -> StateDescriptor:
    """Descriptor of I / d^2 on one pair (Werner-family coordinates)."""
    d = dimension(d)
    return StateDescriptor(d, (0,), np.array([(d + 1) / (2 * d), (d - 1) / (2 * d)]))


def reduce_mixed_pair(desc: StateDescriptor, i: int, j: int) -> StateDescriptor:
    """Trace out the first member of pair i and the second member of pair j.

    For i != j this orphans the partners of both pairs, which end up
    maximally mixed and uncorrelated with the rest, so the result carries
    the same information as dropping pairs i and j entirely.  With only
    two pairs nothing invariant remains and the leftover two slots are
    exactly maximally mixed; that descriptor is returned (in Werner-family
    coordinates, though for I / d^2 every family agrees).
    """
    i, j = _pair_index(desc, i), _pair_index(desc, j)
    if i == j:
        raise ValueError("pair indices must differ; use reduce_pair for a matched pair")
    if desc.K == 2:
        return maximally_mixed_pair(desc.d)
    return reduce_pair(reduce_pair(desc, max(i, j)), min(i, j))
