"""The simplex of locally invariant states and its separability geometry.

A 2K-qudit state that commutes with every U_1 (x) ... (x) U_K (x) W_1 (x)
... (x) W_K, where W_i is U_i or conj(U_i) according to a per-pair bit
sigma_i, is a convex mixture of the 2^K normalized family projectors for
that sigma.  The mixture weights, called fidelities, are the coordinates
used throughout this module:

* states map to points of a (2^K - 1)-simplex (:class:`StateDescriptor`);
* group averaging (twirling) maps any state to its fidelity vector;
* partial transposition of selected pairs acts on fidelities through one
  2 x 2 block per transposed pair, along that pair's bit; positivity of
  the transformed vector is the PPT test;
* extremal fully product states land on computable points, whose convex
  hull gives linear inequality bounds (necessary separability conditions).

Bit-vector arguments follow the convention of :mod:`.bits`: the first bit
is the most significant in fidelity indexing, and a 1 in position i of a
transposition pattern transposes the second member of pair i (slot K+i).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bits import Bits, as_bits, bits_str, label
from .operators import (
    HERMITICITY_ATOL,
    Operator,
    Rng,
    _Fresh,
    _haar_sample,
    _integer,
    _readonly,
    _side,
    dimension,
    partial_trace,
)
from .projectors import _transposes, moment_expansion, pair_forms

FIDELITY_NEG_ATOL = 1e-12
FIDELITY_SUM_ATOL = 1e-10
PPT_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class StateDescriptor:
    """A point of the invariant-state simplex: (d, sigma, fidelities).

    fidelities has length 2^K for K = len(sigma), is indexed by the bit
    encoding of :mod:`.bits`, and must be finite, nonnegative (within
    1e-12) and sum to 1 (within 1e-10); -0.0 is stored as 0.0, which
    prints as it parses back.  K is at most 12: the criteria's 2^K-sided
    PPT rows and order matrix stay under the matrix-side cap.  The
    described state is the corresponding mixture of normalized family
    projectors; see :func:`synthesize`.  Descriptors compare by value.
    """

    d: int
    sigma: Bits
    fidelities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", dimension(self.d))
        object.__setattr__(self, "sigma", as_bits(self.sigma, name="sigma"))
        _side(2, len(self.sigma))
        f = _readonly(np.ravel(self.fidelities), float) + 0.0
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
        f.setflags(write=False)
        object.__setattr__(self, "fidelities", f)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.sigma) == (other.d, other.sigma) and np.array_equal(self.fidelities, other.fidelities)

    def __hash__(self):
        return hash((self.d, self.sigma))

    @property
    def K(self) -> int:
        return len(self.sigma)


def _check_state_shape(n: int, sigma) -> Bits:
    sigma = as_bits(sigma, name="sigma")
    if n != 2 * len(sigma):
        raise ValueError(f"state acts on {n} subsystems but sigma has {len(sigma)} pairs")
    return sigma


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
    return Operator(desc.d, 2 * desc.K, _Fresh(mat))


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
    Samples go in batches of a bounded working size: one generator draws
    the batch's normals, sample by sample, one stacked QR gives the
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
    conj = np.array(sigma, dtype=bool)[:, None, None]
    rows = rho.mat.reshape(h, h**3)
    acc = np.zeros((side, side), dtype=np.complex128)
    terms = acc.reshape(h, h, h, h)
    # reused by every batch: fresh arrays for each step were up to 40 % slower
    work = np.empty((2, batch, side * side), dtype=np.complex128)
    for start in range(0, samples, batch):
        n = min(batch, samples - start)
        us = _haar_sample(rng.at(start)._normals(np.empty((n, k, 2, d, d))))
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
    return Operator(d, 2 * k, _Fresh(acc))


# ---------------------------------------------------------------------------
# fidelity transfer under partial transposition


def _step(x: np.ndarray, block: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # one pair's block along the next-to-last axis, elementwise: out[..., c, :]
    # = x[..., 0, :] * block[0, c] + x[..., 1, :] * block[1, c].  No step
    # can overflow: a descriptor's fidelities (sum 1 within 1e-10, none below
    # -1e-12) have magnitudes summing to less than 2, and a step multiplies
    # that sum by at most its block's largest row sum of magnitudes, d for
    # an isotropic and at most 2 for a Werner block; so an entry is at most
    # 2 d^K <= 2^637 at d <= 2^53, K <= 12 (the bound holds to K = 19).  A
    # pt_matrix entry is at most ((d + 1) / 2)^12, 2^624 in floats, and a
    # polytope bound at least 2^-636, a normal float.
    out = np.multiply(x[..., :1, :], block[0, :, None], out=out)
    out += x[..., 1:, :] * block[1, :, None]
    return out


def pt_matrix(mu: Iterable[int], nu: Iterable[int], d: int) -> np.ndarray:
    """Linear action of a pair-wise partial transposition on fidelities.

    Returns the read-only real 2^K x 2^K matrix whose row alpha expands the
    mu-transposed normalized projector alpha of family nu in the target
    family xor(mu, nu).  Every row sums to 1, but entries may be negative,
    which is what makes the PPT test nontrivial.  It is
    ``reduce(np.kron, blocks)``, first pair most significant, of the
    identity where mu_i = 0 and of the transposition block of family nu_i
    in :func:`.projectors.pair_forms` where mu_i = 1: the oracle of
    :func:`transform_fidelities`, which never builds it.

    K is at most 12, as for :class:`StateDescriptor`, checked before any
    allocation.  With d <= 2**53 every entry is finite, at most 2**624 in
    magnitude.
    """
    mu = as_bits(mu, name="mu")
    nu = as_bits(nu, len(mu), "nu")
    _side(2, len(mu))
    blocks = _transposes(dimension(d))
    mat = reduce(np.kron, [blocks[n] if m else np.eye(2) for m, n in zip(mu, nu)])
    mat.setflags(write=False)
    return mat


def transform_fidelities(desc: StateDescriptor, mu: Iterable[int]) -> np.ndarray:
    """Fidelity vector of the mu-partial transpose of a described state.

    The result, a new array, lives in the family xor(mu, desc.sigma).
    Entries always sum to 1 but may be negative; a negative entry
    certifies that the transposed operator is not positive semidefinite.
    It is ``desc.fidelities @ pt_matrix(mu, desc.sigma, desc.d)`` up to
    rounding, computed pair by pair: each transposed pair's 2 x 2 block
    acts along its own axis of the fidelities seen as a (2,) * K array,
    by elementwise products and sums, so IEEE arithmetic fixes every bit.
    With d <= 2**53 no step can overflow: every entry is finite.
    """
    mu = as_bits(mu, desc.K, "mu")
    blocks, t = _transposes(desc.d), desc.fidelities
    for i, (m, s) in enumerate(zip(mu, desc.sigma)):
        if m:  # the step along axis i of t.reshape((2,) * K), first pair first
            t = _step(t.reshape(2**i, 2, -1), blocks[s]).reshape(-1)
    return t.copy() if t is desc.fidelities else t


# ---------------------------------------------------------------------------
# separability criteria


class ConstraintFailure(NamedTuple):
    """One violated inequality: its name, the value found and the bound
    that value broke.  A named tuple, so it unpacks as, and compares equal
    to, the plain tuple ``(constraint, value, bound)``."""

    constraint: str
    value: float
    bound: float


class _Columns(NamedTuple):
    # the failures of a checker's verdict as columns: failure i is named
    # heads[rows[i]] + labels[cols[i]], its value is table[values[i]] and
    # its bound table[bounds[i]].  Names need no JSON escaping and every
    # float in table is finite.
    heads: list[str]
    rows: list[int]
    labels: list[str]
    cols: list[int]
    table: list[float]
    values: Sequence[int]
    bounds: Sequence[int]

    def failures(self) -> tuple[ConstraintFailure, ...]:
        # C-level maps over the columns and one tuple per failure, no
        # Python frame each
        names = map(operator.add, map(self.heads.__getitem__, self.rows), map(self.labels.__getitem__, self.cols))
        leaves = zip(names, map(self.table.__getitem__, self.values), map(self.table.__getitem__, self.bounds))
        return tuple(map(tuple.__new__, repeat(ConstraintFailure), leaves))


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of one criterion: satisfied iff no constraint failed.

    ``failures`` lists each violated inequality with its raw margin, so
    callers can apply their own thresholds.  ``necessary_only`` marks
    criteria that can only certify non-separability, never separability.

    The checkers of this module pass their failures to the constructor as
    columns (names, values and bounds indexed by pattern and fidelity),
    which :func:`.formats.dumps_verdict` prints without making a
    :class:`ConstraintFailure`; the tuple is built on the first read of
    ``failures`` and kept.  Verdicts compare, hash and print by their
    fields, so a checker's verdict equals the one built from its
    ``failures``.  ``dataclasses.replace`` reads ``failures``, so it
    builds every :class:`ConstraintFailure` of a checker's verdict.
    """

    criterion: str
    failures: tuple[ConstraintFailure, ...]
    necessary_only: bool = False
    biseparable: Optional["SeparabilityVerdict"] = None

    _columns = None  # a checker's _Columns; not a field

    def __post_init__(self):
        if isinstance(self.failures, _Columns):
            self.__dict__["_columns"] = self.__dict__.pop("failures")

    def __getattr__(self, name):
        # only when the instance dict lacks name: the failures of a checker's
        # verdict, built on first read and kept there.  Two threads reading
        # first at once each build an equal tuple.
        if name != "failures" or self._columns is None:
            raise AttributeError(name)
        failures = self.__dict__["failures"] = self._columns.failures()
        return failures

    @property
    def satisfied(self) -> bool:
        return not (self.failures if self._columns is None else self._columns.cols)

    @property
    def outcome(self) -> str:
        return "satisfied" if self.satisfied else "violated"


def _labels(k: int) -> list[str]:
    # the bit label of every fidelity index, in index order
    return list(map(label, range(2**k), repeat(k)))


def _ppt(criterion, rows, heads, labels, necessary_only=False, biseparable=None) -> SeparabilityVerdict:
    # the PPT verdict on 2-D transformed rows, row p named heads[p]: each
    # entry below -PPT_ATOL fails against the bound 0.0, which ends the table
    mask = rows < -PPT_ATOL
    patterns, cols = np.nonzero(mask)
    values = rows[mask].tolist()
    n = len(values)
    values.append(0.0)
    columns = _Columns(heads, patterns.tolist(), labels, cols.tolist(), values, range(n), [n] * n)
    return SeparabilityVerdict(criterion, columns, necessary_only, biseparable)


def check_ppt(desc: StateDescriptor, mu: Iterable[int]) -> SeparabilityVerdict:
    """Positivity of the mu-partial transpose, decided on fidelities.

    The transposed state is positive semidefinite exactly when every
    transformed fidelity is nonnegative; entries below -1e-12 fail.  The
    verdict keeps its failures as columns until ``failures`` is read.
    """
    mu = as_bits(mu, desc.K, "mu")
    name = bits_str(mu)
    return _ppt(f"ppt:{name}", transform_fidelities(desc, mu)[None], [f"mu={name},alpha="], _labels(desc.K))


def _check_bisep(desc: StateDescriptor) -> SeparabilityVerdict:
    # the biseparability test on its own: the all-ones PPT row, named and
    # flagged as in the copy that check_ppt_all embeds
    rows = transform_fidelities(desc, (1,) * desc.K)[None]
    return _ppt("bisep", rows, [f"mu={'1' * desc.K},alpha="], _labels(desc.K), necessary_only=True)


# entries of the largest product that check_ppt_all makes in one step (2 MiB)
_STEP_ENTRIES = 2**18


def check_ppt_all(desc: StateDescriptor) -> SeparabilityVerdict:
    """PPT under every transposition pattern; the full-separability test.

    An invariant state is separable into all 2K parties exactly when all
    2^K patterns pass: its coordinate at vertex alpha of the simplex of
    twirled fully product states is a positive multiple of the all-ones
    entry of pattern not(alpha), and a separable state is PPT.  The
    all-ones sub-verdict, PPT across the cut grouping all first members,
    is reported alongside as the biseparability test.  It is flagged
    ``necessary_only``: a state entangled across that cut can pass it.

    The result equals that of :func:`check_ppt` over the patterns in
    :func:`.bits.all_vectors` order, bit for bit, and every value is
    finite (see :func:`transform_fidelities`).  The patterns grow one pair
    at a time: at pair i, each pattern keeps its row for mu_i = 0 and
    gains, for mu_i = 1, the step along axis i that
    :func:`transform_fidelities` takes, by blocks of patterns so that no
    step holds more than a bounded product beside the (2^K, 2^K) rows.
    Both verdicts keep their failures as columns until ``failures`` is
    read.
    """
    k, f = desc.K, desc.fidelities
    size = 2**k
    labels = _labels(k)
    blocks = _transposes(desc.d)
    # before pair i, the row of pattern p is rows[p * 2^(k - i)]
    rows = np.empty((size, size))
    rows[0] = f
    chunk = max(1, _STEP_ENTRIES >> k)  # patterns per step, 2^k entries each
    for i, s in enumerate(desc.sigma):
        grid = rows.reshape(2**i, 2, 2 ** (k - i - 1), 2**i, 2, -1)
        for p in range(0, 2**i, chunk):
            _step(grid[p : p + chunk, 0, 0], blocks[s], grid[p : p + chunk, 1, 0])
    heads = [f"mu={name},alpha=" for name in labels]
    # the last row is the all-ones pattern's, the biseparability test
    bisep = _ppt("bisep", rows[-1:], heads[-1:], labels, necessary_only=True)
    return _ppt("ppt-all", rows, heads, labels, biseparable=bisep)


def check_polytope(desc: StateDescriptor) -> SeparabilityVerdict:
    """Linear bounds carved out by extremal product states.

    Checks every fidelity against its hull bound (1/2^|alpha|) *
    (2/d)^|sigma*alpha| and the monotonicity f_alpha <= f_beta whenever
    |alpha| > |beta|.  At K <= 2 these conditions are necessary for full
    separability; they can hold for states that fail a PPT test, so the
    verdict is flagged ``necessary_only``.  At K >= 3 the order rule also
    compares labels that are not nested and rejects some separable
    points (README, "Known limitations").  The verdict keeps its failures
    as columns until ``failures`` is read: the values and bounds index
    one table of the 2^K fidelities and the 2^K hull bounds.
    """
    k, f = desc.K, desc.fidelities
    size = 2**k
    vectors = np.arange(size)[:, None] >> np.arange(k - 1, -1, -1) & 1
    weight = vectors.sum(axis=1)
    overlap = vectors @ np.array(desc.sigma)
    # Python float powers: numpy's array ** can differ from them in the last
    # bit, and bounds are printed with 17 digits
    halves = np.array([0.5**w for w in range(k + 1)])
    ratios = np.array([(2.0 / desc.d) ** o for o in range(k + 1)])
    bound = halves[weight] * ratios[overlap]
    above = np.flatnonzero(f > bound + PPT_ATOL)
    order = (weight[:, None] > weight[None, :]) & (f[:, None] > f[None, :] + PPT_ATOL)
    alphas, betas = np.nonzero(order)
    # head 0 names the bound failures, head 1 + alpha the order failures
    # of alpha, each against a beta
    labels = _labels(k)
    heads = ["bound,alpha="] + [f"order,alpha={name},beta=" for name in labels]
    columns = _Columns(
        heads,
        [0] * above.size + (alphas + 1).tolist(),
        labels,
        np.concatenate([above, betas]).tolist(),
        f.tolist() + bound.tolist(),
        np.concatenate([above, alphas]).tolist(),
        np.concatenate([above + size, betas]).tolist(),
    )
    return SeparabilityVerdict("polytope", columns, necessary_only=True)


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
    and, being a projection of a separable state, satisfies every PPT
    test; :func:`check_polytope` can reject it at K >= 3 (README, "Known
    limitations").  K is at most 12, as for :class:`StateDescriptor`.
    """
    sigma = as_bits(sigma, name="sigma")
    _side(2, len(sigma))
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
