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

import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bits import Bits, all_labels, as_bits, bits_str
from .operators import (
    HERMITICITY_ATOL,
    Operator,
    Rng,
    _Fresh,
    _haar_sample,
    _integer,
    _operator,
    _real,
    _side,
    dimension,
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

    def __init__(self, d: int, sigma: Bits, fidelities: np.ndarray):
        object.__setattr__(self, "d", dimension(d))
        object.__setattr__(self, "sigma", as_bits(sigma, name="sigma"))
        _side(2, len(self.sigma))
        f = _real(fidelities).reshape(-1) + 0.0
        if f.size != 2 ** len(self.sigma):
            raise ValueError(f"need 2**K = {2 ** len(self.sigma)} fidelities, got {f.size}")
        values = f.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError(f"fidelities must be finite, got {f}")
        if not min(values) >= -FIDELITY_NEG_ATOL:
            raise ValueError(f"fidelities must be nonnegative, got min {min(values):.3e}")
        # 2^12 entries of at most 2 cannot sum to inf; larger ones, which fail, can
        with np.errstate(over="ignore") if max(values) > 2.0 else nullcontext():
            total = float(np.add.reduce(f))
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
    # the change-of-basis blocks, the trace and the complex moments Tr(rho X_S),
    # from one gather; take(positions) returns the entries of rho at flat
    # row-major positions, in the shape of positions
    blocks, patterns = moment_expansion(d, sigma)
    entries = take(patterns)
    # X_S for the empty S is the identity, so row 0 holds the diagonal;
    # summed in index order, as np.trace sums it
    trace = complex(entries[0, np.argsort(patterns[0])].sum())
    return blocks, trace, entries.sum(axis=1)


def _fidelities(take, d: int, n: int, sigma) -> StateDescriptor:
    # fidelities_of for the state on n qudits whose entries take reads, as
    # from a file (see _moments); f = C m walks the moment blocks transposed
    sigma = _check_state_shape(n, sigma)
    blocks, tr, moments = _moments(take, d, sigma)
    if abs(tr - 1.0) > FIDELITY_SUM_ATOL:
        raise ValueError(f"state must have unit trace, got {tr:.12g}")
    worst = float(np.max(np.abs(moments.imag)))
    if not worst <= HERMITICITY_ATOL:
        raise ValueError(f"state is not Hermitian: a moment Tr(rho X_S) has imaginary part {worst:.3e}")
    return StateDescriptor(d, sigma, _walk(moments.real, blocks.swapaxes(1, 2), (1,) * len(sigma), sigma))


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
    return _fidelities(_operator(rho).mat.reshape(-1).take, rho.d, rho.n, sigma)


def _scatter(desc: StateDescriptor) -> tuple[np.ndarray, np.ndarray]:
    # the entries of synthesize(desc) that can be nonzero: sorted flat
    # row-major positions and their real values; every other entry is 0.
    # Each value sums the weights of the X_S covering it in pattern order
    # from +0.0 (np.add.at adds in index order), so every caller gets the same bits.
    blocks, patterns = moment_expansion(desc.d, desc.sigma)
    traces = reduce(np.kron, [pair_forms(desc.d, s)[1] for s in desc.sigma])
    weights = _walk(desc.fidelities / traces, blocks, (1,) * desc.K, desc.sigma)
    positions, slots = np.unique(patterns, return_inverse=True)
    values = np.zeros(positions.size)
    np.add.at(values, slots.reshape(-1), np.repeat(weights, patterns.shape[1]))
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
    sigma = _check_state_shape(_operator(rho).n, sigma)
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
    # one pair's (2, 2, 1) block along axis -3 of x, whose axis -2 has length
    # 1: out[..., c, :] = x[..., 0, 0, :] * block[0, c] + x[..., 1, 0, :] *
    # block[1, c], elementwise.  No step can overflow: a descriptor's
    # fidelities (sum 1 within 1e-10, none below -1e-12) have magnitudes
    # summing to less than 2, and a step multiplies that sum by at most its
    # block's largest row sum of magnitudes, d for an isotropic and at most 2
    # for a Werner block; so an entry is at most 2 d^K <= 2^637 at d <= 2^53,
    # K <= 12 (the bound holds to K = 19).  A pt_matrix entry is at most ((d
    # + 1) / 2)^12, 2^624 in floats, and a polytope bound at least 2^-636.
    products = x * block  # [..., r, c, :] = x[..., r, 0, :] * block[r, c]
    return np.add(products[..., 0, :, :], products[..., 1, :, :], out=out)


def _walk(x: np.ndarray, blocks: np.ndarray, mu: Bits, sigma: Bits) -> np.ndarray:
    # a new x @ reduce(np.kron, [blocks[s] if m else I for m, s in zip(mu, sigma)]), by steps
    # of blocks[sigma_i] along axis i of x.reshape((2,) * K), first pair first: never BLAS
    for i, (m, s) in enumerate(zip(mu, sigma)):
        if m:
            x = _step(x.reshape(2**i, 2, 1, -1), blocks[s])
    return x.copy() if x.ndim == 1 else x.reshape(-1)


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
    blocks = _transposes(dimension(d))[..., 0]
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
    return _walk(desc.fidelities, _transposes(desc.d), as_bits(mu, desc.K, "mu"), desc.sigma)


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

    def __init__(self, criterion: str, failures, necessary_only: bool = False, biseparable=None):
        fields = self.__dict__  # past the frozen __setattr__; a checker's _Columns goes aside
        fields["criterion"], fields["necessary_only"], fields["biseparable"] = criterion, necessary_only, biseparable
        fields["_columns" if isinstance(failures, _Columns) else "failures"] = failures

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


def _failing(rows: np.ndarray) -> tuple[list[int], list[int], list[float]]:
    # the entries of 2-D rows below -PPT_ATOL, row-major: rows, columns, values and the bound 0.0
    mask = rows < -PPT_ATOL
    patterns, cols = mask.nonzero()
    return patterns.tolist(), cols.tolist(), rows[mask].tolist() + [0.0]


def _ppt(criterion, heads, labels, failing, necessary_only=False, biseparable=None) -> SeparabilityVerdict:
    # the PPT verdict whose failure i of _failing is heads[patterns[i]] + labels[cols[i]]
    patterns, cols, table = failing
    n = len(patterns)
    columns = _Columns(heads, patterns, labels, cols, table, range(n), [n] * n)
    return SeparabilityVerdict(criterion, columns, necessary_only, biseparable)


def check_ppt(desc: StateDescriptor, mu: Iterable[int]) -> SeparabilityVerdict:
    """Positivity of the mu-partial transpose, decided on fidelities.

    The transposed state is positive semidefinite exactly when every
    transformed fidelity is nonnegative; entries below -1e-12 fail.  The
    verdict keeps its failures as columns until ``failures`` is read.
    """
    mu = as_bits(mu, desc.K, "mu")
    name = bits_str(mu)
    return _ppt(f"ppt:{name}", [f"mu={name},alpha="], all_labels(desc.K), _failing(transform_fidelities(desc, mu)[None]))


def _check_bisep(desc: StateDescriptor) -> SeparabilityVerdict:
    # the biseparability test on its own: the all-ones PPT row, named and
    # flagged as in the copy that check_ppt_all embeds
    rows = transform_fidelities(desc, (1,) * desc.K)[None]
    return _ppt("bisep", [f"mu={'1' * desc.K},alpha="], all_labels(desc.K), _failing(rows), necessary_only=True)


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
    labels = all_labels(k)
    blocks = _transposes(desc.d)
    # before pair i, the row of pattern p is rows[p * 2^(k - i)]
    rows = np.empty((size, size))
    rows[0] = f
    chunk = max(1, _STEP_ENTRIES >> (k + 1))  # patterns per step, 2^(k + 1) products each
    for i, s in enumerate(desc.sigma):
        grid = rows.reshape(2**i, 2, 2 ** (k - i - 1), 2**i, 2, -1)
        for p in range(0, 2**i, chunk):
            _step(grid[p : p + chunk, 0, 0, ..., None, :], blocks[s], grid[p : p + chunk, 1, 0])
    heads = [f"mu={name},alpha=" for name in labels]
    failing = _failing(rows)
    # the last row's failures, the all-ones pattern's, end the lists: the biseparability test
    tail = len(failing[0]) - failing[0].count(size - 1)
    bisep = _ppt("bisep", heads, labels, [part[tail:] for part in failing], necessary_only=True)
    return _ppt("ppt-all", heads, labels, failing, biseparable=bisep)


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
    one table of the 2^K fidelities and the hull bounds that fail.
    """
    k, f = desc.K, desc.fidelities
    size, values, sigma = 2**k, f.tolist(), int(bits_str(desc.sigma), 2)
    weight = list(map(int.bit_count, range(size)))
    overlap = list(map(int.bit_count, map(sigma.__and__, range(size))))
    # Python float powers: numpy's array ** can differ from them in the last
    # bit, and bounds are printed with 17 digits
    halves = [0.5**w for w in range(k + 1)]
    ratios = [(2.0 / desc.d) ** o for o in range(k + 1)]
    bound = list(map(operator.mul, map(halves.__getitem__, weight), map(ratios.__getitem__, overlap)))
    above = [alpha for alpha, (x, b) in enumerate(zip(values, bound)) if x > b + PPT_ATOL]
    weight = np.array(weight)
    alphas, betas = (np.greater.outer(weight, weight) & np.greater.outer(f, f + PPT_ATOL)).nonzero()
    betas = betas.tolist()
    # head 0 names the bound failures, head 1 + alpha the order failures
    # of alpha, each against a beta
    labels = all_labels(k)
    heads = ["bound,alpha="] + [f"order,alpha={name},beta=" for name in labels]
    columns = _Columns(
        heads,
        [0] * len(above) + (alphas + 1).tolist(),
        labels,
        above + betas,
        values + [bound[alpha] for alpha in above],
        above + alphas.tolist(),
        list(range(size, size + len(above))) + betas,
    )
    return SeparabilityVerdict("polytope", columns, necessary_only=True)


# ---------------------------------------------------------------------------
# extremal product states


def _check_overlaps(overlaps, k: int) -> np.ndarray:
    a = _real(overlaps).reshape(-1)
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
    marginal = np.add.reduce(desc.fidelities.reshape(2 ** (i - 1), 2, -1), axis=1)
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
