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
    _side,
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
    1e-12) and sum to 1 (within 1e-10).  K is at most 12: transfer and
    order matrices are 2^K-sided, under the matrix-side cap.  The
    described state is the corresponding mixture of normalized family
    projectors; see :func:`synthesize`.
    """

    d: int
    sigma: Bits
    fidelities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", dimension(self.d))
        object.__setattr__(self, "sigma", as_bits(self.sigma, name="sigma"))
        _side(2, len(self.sigma))
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


def _kron_stack(factors: np.ndarray) -> np.ndarray:
    # per leading index, the Kronecker product of stacked d x d factors,
    # first factor leading: shape (n, k, d, d) -> (n, d**k, d**k)
    n, k, d, _ = factors.shape
    out = factors[:, 0]
    for i in range(1, k):
        side = out.shape[1] * d
        out = (out[:, :, None, :, None] * factors[:, i, None, :, None, :]).reshape(n, side, side)
    return out


# complex entries in each of mc_twirl's two working arrays (8 MiB): a batch
# holds as many samples as fit, and at least one
_MC_BATCH_ENTRIES = 2**19


def mc_twirl(rho: Operator, sigma: Iterable[int], samples: int, rng: Rng) -> Operator:
    """Monte-Carlo estimate of the group average by Haar sampling.

    Averages V rho V^dag over ``samples`` draws, where V applies an
    independent Haar unitary U_i to slot i and U_i or conj(U_i) to slot
    K+i according to sigma_i.  The estimator is unbiased and deterministic
    in ``rng``; sample s consumes the sub-stream ``rng.at(s)``, so results
    do not depend on how the sample range might be partitioned.

    V is never formed.  V = A (x) B, where A = U_1 (x) ... (x) U_K and
    B = W_1 (x) ... (x) W_K each have side h = d**K, so A and B act on the
    row index of rho, seen as an (h, h, h, h) tensor, and their adjoints
    on the column index: 4 h**5 operations per sample instead of 2 h**6.
    Samples go in batches of a bounded working size: one Philox generator
    is moved to each sample's counter in place, one stacked QR gives the
    batch's unitaries, the products run over the sample axis, and the
    terms are added to the sum in sample order.
    """
    sigma = _check_state_shape(rho.n, sigma)
    samples = _integer(samples, "sample count")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    rng.at(samples - 1)  # the last sample's counter is valid, so every one is
    k, d, side = len(sigma), rho.d, rho.side
    h = d**k
    batch = min(samples, max(1, _MC_BATCH_ENTRIES // side**2))
    gen = rng.generator()
    state = gen.bit_generator.state
    # the counter as little-endian 64-bit words: (rng.counter + s) << 128
    # fills words 2 and 3
    words = state["state"]["counter"]
    conj = np.array(sigma, dtype=bool)[:, None, None]
    rows = rho.mat.reshape(h, h**3)
    acc = np.zeros((side, side), dtype=np.complex128)
    terms = acc.reshape(h, h, h, h)
    # reused by every batch: fresh arrays for each step were up to 40 % slower
    work = np.empty((2, batch, side * side), dtype=np.complex128)
    for start in range(0, samples, batch):
        n = min(batch, samples - start)
        normals = np.empty((n, k, 2, d, d))
        for i in range(n):
            counter = rng.counter + start + i
            words[2], words[3] = counter & 0xFFFF_FFFF_FFFF_FFFF, counter >> 64
            gen.bit_generator.state = state  # also empties the buffer of drawn words
            gen.standard_normal(out=normals[i])
        us = _haar_sample(normals)
        a = _kron_stack(us)
        b = _kron_stack(np.where(conj, us.conj(), us))
        one, two = work[0, :n], work[1, :n]
        # rho[x, y, x', y'] -> sum A[a, x] B[b, y] rho[x, y, x', y'] conj(A[a', x'] B[b', y']);
        # after each step, the axes of its result that follow the sample axis
        np.matmul(a.reshape(n * h, h), rows, out=one.reshape(n * h, h**3))  # a, y, x', y'
        np.matmul(one.reshape(n, h**3, h), b.conj().swapaxes(1, 2), out=two.reshape(n, h**3, h))  # a, y, x', b'
        one.reshape(n, h, h, h, h)[...] = two.reshape(n, h, h, h, h).transpose(0, 2, 1, 4, 3)  # y, a, b', x'
        np.matmul(b, one.reshape(n, h, h**3), out=two.reshape(n, h, h**3))  # b, a, b', x'
        np.matmul(two.reshape(n, h**3, h), a.conj().swapaxes(1, 2), out=one.reshape(n, h**3, h))  # b, a, b', a'
        for term in one:
            terms += term.reshape(h, h, h, h).transpose(1, 0, 3, 2)
    acc /= samples
    acc.setflags(write=False)  # handed to Operator without a copy
    return Operator(d, 2 * k, acc)


# ---------------------------------------------------------------------------
# fidelity transfer under partial transposition


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron(a, b) for a 2 x 2 b: the same products a[r, c] * b[i, j], one
    # strided multiply per entry of b into the interleaved output
    n = a.shape[0]
    out = np.empty((n, 2, n, 2))
    for i in range(2):
        for j in range(2):
            np.multiply(a, b[i, j], out=out[:, i, :, j])
    return out.reshape(2 * n, 2 * n)


def _finite(values: np.ndarray, name: str, d: int) -> np.ndarray:
    # values of the transfer of pattern name, unless one overflowed; the
    # caller silences the overflow warnings of computing them
    if not np.all(np.isfinite(values)):
        raise ValueError(f"transfer of mu={name} overflows at d = {float(d):.3g}")
    return values


def pt_matrix(mu: Iterable[int], nu: Iterable[int], d: int) -> np.ndarray:
    """Linear action of a pair-wise partial transposition on fidelities.

    Returns the read-only real 2^K x 2^K matrix whose row alpha expands the
    mu-transposed normalized projector alpha of family nu in the target
    family xor(mu, nu).  Every row sums to 1, but entries may be negative,
    which is what makes the PPT test nontrivial.  It is the Kronecker
    product over pairs, first pair most significant, of the identity
    where mu_i = 0 and of the transposition block of family nu_i in
    :func:`.projectors.pair_forms` where mu_i = 1.  The product is taken
    left to right with a 2 x 2 Kronecker kernel, so every entry is
    bitwise that of ``reduce(np.kron, blocks)``.  An entry that overflows
    raises ValueError, as in :func:`transform_fidelities`.
    """
    mu = as_bits(mu, name="mu")
    nu = as_bits(nu, len(mu), "nu")
    d = dimension(d)
    eye, transposes = np.eye(2), {s: pair_forms(d, s)[2] for s in set(nu)}
    blocks = [transposes[n] if m else eye for m, n in zip(mu, nu)]
    with np.errstate(over="ignore", invalid="ignore"):
        mat = _finite(reduce(_kron2, blocks), bits_str(mu), d)
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
        return _finite(desc.fidelities @ pt_matrix(mu, desc.sigma, desc.d), bits_str(mu), desc.d)


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


def _labels(k: int) -> list[str]:
    # the bit label of every fidelity index, in index order
    return [label(i, k) for i in range(2**k)]


def _ppt_failures(t: np.ndarray, name: str, labels: list[str]) -> list[ConstraintFailure]:
    idx = np.flatnonzero(t < -PPT_ATOL)
    head = f"mu={name},alpha="
    return [ConstraintFailure(head + labels[i], v, 0.0) for i, v in zip(idx.tolist(), t[idx].tolist())]


def check_ppt(desc: StateDescriptor, mu: Iterable[int]) -> SeparabilityVerdict:
    """Positivity of the mu-partial transpose, decided on fidelities.

    The transposed state is positive semidefinite exactly when every
    transformed fidelity is nonnegative; entries below -1e-12 fail.
    """
    mu = as_bits(mu, desc.K, "mu")
    name = bits_str(mu)
    failures = _ppt_failures(transform_fidelities(desc, mu), name, _labels(desc.K))
    return SeparabilityVerdict(f"ppt:{name}", tuple(failures))


def check_ppt_all(desc: StateDescriptor) -> SeparabilityVerdict:
    """PPT under every transposition pattern; the full-separability test.

    An invariant state is separable into all 2K parties exactly when all
    2^K patterns pass.  The all-ones sub-verdict doubles as the
    biseparability test (separability across the cut grouping all first
    members) and is reported alongside.

    The result equals that of :func:`check_ppt` over the patterns in
    :func:`.bits.all_vectors` order, bit for bit, at less cost.  The
    per-pair blocks are fetched once.  Consecutive patterns share a prefix
    of pairs, so a stack keeps the Kronecker product of each prefix and
    only the products past the first changed pair are redone: 2^(K+1) - 4
    products of the 2 x 2 kernel in all, instead of (K - 1) 2^K.
    """
    k = desc.K
    labels = _labels(k)
    choices = [(np.eye(2), pair_forms(desc.d, s)[2]) for s in desc.sigma]
    # prefix[i]: the product of the blocks of pairs 1..i+1 of the current pattern
    prefix = [None] * k
    failures = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n, name in enumerate(labels):
            # patterns n - 1 and n differ in their last bit_length(n ^ (n - 1))
            # pairs, so only those prefixes are redone
            for i in range(k - (n ^ (n - 1)).bit_length() if n else 0, k):
                block = choices[i][n >> (k - 1 - i) & 1]
                prefix[i] = _kron2(prefix[i - 1], block) if i else block
            last = _ppt_failures(_finite(desc.fidelities @ prefix[-1], name, desc.d), name, labels)
            failures.extend(last)
    # labels ends with the all-ones pattern, the biseparability test
    return SeparabilityVerdict(
        "ppt-all", tuple(failures), biseparable=SeparabilityVerdict("bisep", tuple(last))
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
    vectors = np.array(list(all_vectors(k)))
    weight = vectors.sum(axis=1)
    overlap = vectors @ np.array(desc.sigma)
    # Python float powers: numpy's array ** can differ from them in the last
    # bit, and bounds are printed with 17 digits
    halves = np.array([0.5**w for w in range(k + 1)])
    ratios = np.array([(2.0 / desc.d) ** o for o in range(k + 1)])
    bound = halves[weight] * ratios[overlap]
    labels, values, bounds = _labels(k), f.tolist(), bound.tolist()
    failures = [
        ConstraintFailure(f"bound,alpha={labels[i]}", values[i], bounds[i])
        for i in np.flatnonzero(f > bound + PPT_ATOL).tolist()
    ]
    order = (weight[:, None] > weight[None, :]) & (f[:, None] > f[None, :] + PPT_ATOL)
    rows, cols = np.nonzero(order)
    failures.extend(
        ConstraintFailure(f"order,alpha={labels[i]},beta={labels[j]}", values[i], values[j])
        for i, j in zip(rows.tolist(), cols.tolist())
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
