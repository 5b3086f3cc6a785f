"""Named self-verification checks, and the dense oracles they use.

Each check exercises one closed-form claim of the library against an
independent brute-force route (dense matrices, eigenvalues, Monte Carlo)
and reports a pass/fail result with a deterministic detail string, so a
verification run with a fixed seed produces byte-identical output.  The
dense oracles (basis kets, rank-1 projectors, Kronecker products,
identities, partial traces and transposition, Frobenius distances,
eigenvalues, the family projectors, overlaps and product states) are
defined here, beside the checks that use them; the tests and demos
import them from here, and no library module does.

The ``quick`` level covers the deterministic algebraic identities; the
``full`` level adds the randomized dense-oracle sweeps and the
Monte-Carlo convergence study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .bits import all_vectors, as_bits, xor
from .operators import (
    HERMITICITY_ATOL,
    Operator,
    Rng,
    _integer,
    _norm,
    _operator,
    _side,
    dimension,
)
from .projectors import projector_trace
from .simplex import (
    StateDescriptor,
    _check_overlaps,
    check_polytope,
    check_ppt,
    check_ppt_all,
    extremal_fidelities,
    fidelities_of,
    maximally_mixed_pair,
    mc_twirl,
    pt_matrix,
    reduce_pair,
    reduce_mixed_pair,
    synthesize,
    transform_fidelities,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _bob_slots(mu) -> list[int]:
    k = len(mu)
    return [k + i for i in range(1, k + 1) if mu[i - 1] == 1]


def basis_ket(d: int, digits: str | Sequence[int]) -> np.ndarray:
    """Computational basis vector |i_1 ... i_n> as a length d**n array."""
    d = dimension(d)
    if isinstance(digits, str):
        digits = [int(c) for c in digits]
    digits = [_integer(i, "digit") for i in digits]
    side = _side(d, len(digits))
    if any(not 0 <= i < d for i in digits):
        raise ValueError(f"digits must lie in [0, {d}), got {digits}")
    ket = np.zeros(side, dtype=np.complex128)
    ket[np.ravel_multi_index(digits, (d,) * len(digits))] = 1.0
    return ket


def projector_onto(d: int, vector: np.ndarray) -> Operator:
    """Rank-1 projector |v><v| onto a (normalized) vector of length d**n."""
    d = dimension(d)
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    n = max(1, round(math.log(v.size or 1, d)))
    if _side(d, n) != v.size:
        raise ValueError(f"vector length {v.size} is not a power of d={d}")
    norm = _norm(v)
    if norm == 0:
        raise ValueError("cannot project onto the zero vector")
    v = v / norm
    return Operator(d, n, np.outer(v, v.conj()))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product with a's subsystems leading."""
    if _operator(a).d != _operator(b).d:
        raise ValueError(f"local dimension mismatch: {a.d} vs {b.d}")
    _side(a.d, a.n + b.n)  # before np.kron allocates the product
    return Operator(a.d, a.n + b.n, np.kron(a.mat, b.mat))


def identity(d: int, n: int = 1) -> Operator:
    return Operator(d, n, np.eye(_side(d, n)))


def _check_subsystems(subsystems: Iterable[int], n: int, allow_empty=False) -> tuple[int, ...]:
    subs = [_integer(s, "subsystem index") for s in subsystems]
    out = tuple(sorted(set(subs)))
    if len(out) != len(subs):
        raise ValueError(f"duplicate subsystem index in {subs}")
    if not out and not allow_empty:
        raise ValueError("subsystem set must be nonempty")
    if out and (out[0] < 1 or out[-1] > n):
        raise ValueError(f"subsystem indices {out} out of range 1..{n}")
    return out


def partial_trace(a: Operator, subsystems: Iterable[int]) -> Operator:
    """Trace out the listed subsystems (1-based).

    The result acts on the complement subsystems in their original order
    and has the same total trace as the input.
    """
    subs = _check_subsystems(subsystems, _operator(a).n)
    keep = [s for s in range(1, a.n + 1) if s not in subs]
    if not keep:
        raise ValueError("cannot trace out every subsystem; use .trace()")
    # row axis s - 1 pairs with column axis n + s - 1; a traced subsystem
    # gives both the same label, so einsum sums its diagonal
    cols = [s - 1 if s in subs else a.n + s - 1 for s in range(1, a.n + 1)]
    out = [s - 1 for s in keep] + [a.n + s - 1 for s in keep]
    reduced = np.einsum(a.mat.reshape((a.d,) * (2 * a.n)), list(range(a.n)) + cols, out)
    side = a.d ** len(keep)
    return Operator(a.d, len(keep), reduced.reshape(side, side))


def partial_transpose(a: Operator, subsystems: Iterable[int]) -> Operator:
    """Transpose the listed tensor factors in the computational basis.

    An empty subsystem set is allowed and returns the operator unchanged.
    Applying the same transposition twice restores the input exactly.
    """
    subs = _check_subsystems(subsystems, _operator(a).n, allow_empty=True)
    if not subs:
        return a
    axes = list(range(2 * a.n))
    for s in subs:
        axes[s - 1], axes[a.n + s - 1] = axes[a.n + s - 1], axes[s - 1]
    out = a.mat.reshape((a.d,) * (2 * a.n)).transpose(axes).reshape(a.side, a.side)
    return Operator(a.d, a.n, out)


def frobenius_distance(a: Operator, b: Operator) -> float:
    _operator(a)._check_same_space(b)
    return _norm(a.mat - b.mat)


def min_eigenvalue(a: Operator) -> float:
    """Smallest eigenvalue of a Hermitian operator.

    Raises ValueError if the input deviates from Hermiticity by more than
    ``HERMITICITY_ATOL`` (1e-10) in any entry.
    """
    deviation = float(np.max(np.abs(_operator(a).mat - a.mat.conj().T)))
    if deviation > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    return float(np.linalg.eigvalsh(a.mat)[0])


def _pair_block(d: int, s: int, a: int) -> Operator:
    # member a of one pair's family from F or E, filled entry by entry and so
    # independent of pair_forms: (I + (1 - 2a) F) / 2 if s = 0, else E or I - E
    x = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            if s:
                x[i * d + i, j * d + j] = 1.0 / d  # E = |phi><phi|, phi = sum |ii> / sqrt(d)
            else:
                x[i * d + j, j * d + i] = 1.0  # F |ij> = |ji>
    x = Operator(d, 2, x)
    if s == 0:
        return (identity(d, 2) + (1 - 2 * a) * x) * 0.5
    return x if a else identity(d, 2) - x


def invariant_projector(d: int, sigma: Iterable[int], alpha: Iterable[int]) -> Operator:
    """K-pair family projector on the 2K-slot space, as a dense matrix.

    Pair i of the tensor product acts on slots (i, K+i).  For fixed sigma
    the 2^K projectors over alpha are mutually orthogonal and sum to the
    identity.  Built by Kronecker products and a slot permutation, this is
    the brute-force reference for :func:`.projectors.moment_expansion`.
    """
    sigma = as_bits(sigma, name="sigma")
    alpha = as_bits(alpha, len(sigma), "alpha")
    d, k = dimension(d), len(sigma)
    side = _side(d, 2 * k)
    mat = reduce(np.kron, [_pair_block(d, s, a).mat for s, a in zip(sigma, alpha)])
    if k > 1:
        # the kron above lives on slot order (1, K+1, 2, K+2, ...); the
        # canonical layout puts all first members before all second ones
        pos = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
        axes = pos + [2 * k + p for p in pos]
        mat = mat.reshape((d,) * (4 * k)).transpose(axes).reshape(side, side)
    return Operator(d, 2 * k, mat)


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
    if _operator(proj_a).n != 2 or _operator(proj_b).n != 2:
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


def _dense_fidelities(rho: Operator, sigma, families: dict) -> np.ndarray:
    """Overlaps Tr(rho P) with dense family projectors: the brute-force
    counterpart of the library's fidelity extraction.

    ``families`` maps (d, sigma) to the family's projector matrices; each
    check passes its own dict, so projectors live for one check only.
    """
    key = (rho.d, tuple(sigma))
    if key not in families:
        families[key] = [invariant_projector(rho.d, sigma, alpha).mat for alpha in all_vectors(len(sigma))]
    return np.array([np.einsum("ij,ji->", rho.mat, p).real for p in families[key]])


def extremal_product_state(d: int, sigma, overlaps) -> Operator:
    """The dense product state behind :func:`.simplex.extremal_fidelities`,
    the brute-force counterpart of its closed form: pair i holds |0> on its
    first member and cos(t)|0> + sin(t)|1>, cos(t)^2 = overlaps[i], on its
    second, and the second members of the sigma_i = 1 pairs are transposed."""
    sigma = as_bits(sigma, name="sigma")
    a = _check_overlaps(overlaps, len(sigma))
    zero, one = basis_ket(d, [0]), basis_ket(d, [1])
    kets = [zero] * len(sigma) + [zero * np.sqrt(a_i) + one * np.sqrt(1.0 - a_i) for a_i in a]
    rho = reduce(tensor_product, [projector_onto(d, v) for v in kets])
    return partial_transpose(rho, _bob_slots(sigma))


def check_transfer_inverse() -> CheckResult:
    """The two 2 x 2 transfer blocks are mutual inverses for d = 2..6."""
    worst = 0.0
    for d in range(2, 7):
        x = pt_matrix((1,), (0,), d)
        y = pt_matrix((1,), (1,), d)
        worst = max(worst, float(np.max(np.abs(x @ y - np.eye(2)))))
        worst = max(worst, float(np.max(np.abs(y @ x - np.eye(2)))))
    return CheckResult("transfer-inverse", worst <= 1e-12, f"max |XY - I| = {worst:.3e}")


def check_flip_partial_transpose() -> CheckResult:
    """Transposing one slot of the exchange operator gives d times the
    maximally entangled projector, d = 2..5."""
    worst = 0.0
    for d in range(2, 6):
        flip = invariant_projector(d, (0,), (0,)) - invariant_projector(d, (0,), (1,))  # F, exactly
        lhs = partial_transpose(flip, {2})
        rhs = d * invariant_projector(d, (1,), (1,))
        worst = max(worst, float(np.max(np.abs(lhs.mat - rhs.mat))))
    return CheckResult("flip-partial-transpose", worst <= 1e-15, f"max deviation = {worst:.3e}")


def check_trace_formulas() -> CheckResult:
    """Closed-form projector traces match dense traces for d = 2,3, K = 1,2."""
    worst = 0.0
    for d in (2, 3):
        for k in (1, 2):
            for sigma in all_vectors(k):
                total = 0.0
                for alpha in all_vectors(k):
                    dense = invariant_projector(d, sigma, alpha).trace().real
                    closed = projector_trace(d, sigma, alpha)
                    worst = max(worst, abs(dense - closed))
                    total += closed
                worst = max(worst, abs(total - d ** (2 * k)))
    return CheckResult("trace-formulas", worst <= 1e-9, f"max deviation = {worst:.3e}")


def check_pair_thresholds() -> CheckResult:
    """Single-pair PPT reproduces the known separability thresholds.

    Werner family: antisymmetric weight at most 1/2.  Isotropic family:
    entangled-projector weight at most 1/d.  Probes straddle each
    threshold by 1e-6.
    """
    eps = 1e-6
    ok = True
    for d in (2, 3, 4):
        for delta, expect in ((-eps, True), (eps, False)):
            q1 = 0.5 + delta
            desc = StateDescriptor(d, (0,), np.array([1.0 - q1, q1]))
            ok = ok and (check_ppt(desc, (1,)).satisfied == expect)
            p1 = 1.0 / d + delta
            desc = StateDescriptor(d, (1,), np.array([1.0 - p1, p1]))
            ok = ok and (check_ppt(desc, (1,)).satisfied == expect)
    return CheckResult("pair-thresholds", ok, "boundary probes at +-1e-6 classified correctly" if ok else "misclassification at a boundary probe")


def check_criterion_disagreement() -> CheckResult:
    """A fixed fidelity vector passes the polytope bounds yet fails the
    all-pairs PPT test: the two criteria are genuinely independent."""
    desc = StateDescriptor(2, (0, 0), np.array([0.4, 0.3, 0.3, 0.0]))
    poly = check_polytope(desc)
    ppt11 = check_ppt(desc, (1, 1))
    passed = poly.satisfied and not ppt11.satisfied
    detail = f"polytope {poly.outcome}, ppt:11 {ppt11.outcome}"
    return CheckResult("criterion-disagreement", passed, detail)


def check_biseparable_construction() -> CheckResult:
    """Product of two maximally entangled pair projectors across the cut.

    Its Werner-family fidelities are (3/4, 0, 0, 1/4) at d = 2; the state
    is biseparable (all-ones PPT holds with margin zero) but not fully
    separable (two other patterns fail).  The closed form is also checked
    against the dense twirl of the product operator.
    """
    d = 2
    ent = invariant_projector(d, (1,), (1,))
    q = biseparable_fidelities(ent, ent)
    expected = np.array([0.75, 0.0, 0.0, 0.25])
    formula_dev = float(np.max(np.abs(q - expected)))

    product = Operator(d, 4, np.kron(ent.mat, ent.mat))
    dense = _dense_fidelities(product, (0, 0), {})
    dense_dev = float(np.max(np.abs(dense - q)))

    desc = StateDescriptor(d, (0, 0), q)
    verdict = check_ppt_all(desc)
    passed = (
        formula_dev <= 1e-12
        and dense_dev <= 1e-10
        and verdict.biseparable.satisfied
        and not verdict.satisfied
    )
    detail = (
        f"fidelity deviation {formula_dev:.3e}, dense twirl deviation {dense_dev:.3e}, "
        f"bisep {verdict.biseparable.outcome}, ppt-all {verdict.outcome}"
    )
    return CheckResult("biseparable-construction", passed, detail)


def check_transform_dense(seed: int = 0) -> CheckResult:
    """Transformed fidelities against dense partial transposition.

    For random simplex points in every family, transposing the
    synthesized matrix and re-extracting fidelities in the target family
    must agree with the per-pair steps of :func:`.simplex.transform_fidelities`.
    """
    worst = 0.0
    families: dict = {}
    cells = [(d, k, sigma) for d in (2, 3) for k in (1, 2) for sigma in all_vectors(k)]
    for block, (d, k, sigma) in enumerate(cells):
        gen = Rng(seed).at(1_000 + block).generator()
        for _ in range(50):
            f = gen.dirichlet(np.ones(2**k))
            desc = StateDescriptor(d, sigma, f)
            rho = synthesize(desc)
            for mu in all_vectors(k):
                fast = transform_fidelities(desc, mu)
                dense = _dense_fidelities(
                    partial_transpose(rho, _bob_slots(mu)), xor(mu, sigma), families
                )
                worst = max(worst, float(np.max(np.abs(fast - dense))))
    return CheckResult("transform-dense-oracle", worst <= 1e-10, f"max deviation = {worst:.3e}")


def check_extremal_formula(seed: int = 0) -> CheckResult:
    """Extremal product-state fidelities against the dense construction,
    plus necessity: every extremal point passes both separability checks."""
    worst = 0.0
    necessary = True
    families: dict = {}
    cells = [(d, sigma) for d in (2, 3) for sigma in all_vectors(2)]
    for block, (d, sigma) in enumerate(cells):
        gen = Rng(seed).at(3_000 + block).generator()
        for _ in range(200):
            overlaps = gen.uniform(0.0, 1.0, size=2)
            fast = extremal_fidelities(sigma, overlaps, d)
            dense = _dense_fidelities(
                extremal_product_state(d, sigma, overlaps), sigma, families
            )
            worst = max(worst, float(np.max(np.abs(fast - dense))))
            desc = StateDescriptor(d, sigma, fast)
            necessary = necessary and check_polytope(desc).satisfied
            necessary = necessary and check_ppt_all(desc).satisfied
    passed = worst <= 1e-10 and necessary
    detail = f"max deviation = {worst:.3e}, necessity {'held' if necessary else 'FAILED'}"
    return CheckResult("extremal-formula-oracle", passed, detail)


def check_ppt_sign_agreement(seed: int = 0) -> CheckResult:
    """Fidelity-space PPT verdicts against dense eigenvalue verdicts.

    Random Werner-family points for two pairs, all three nontrivial
    transposition patterns, d = 2 and 3: the sign test on transformed
    fidelities must agree with positivity of the transposed dense matrix.
    """
    agree = 0
    total = 0
    patterns = [(0, 1), (1, 0), (1, 1)]
    for block, d in enumerate((2, 3)):
        gen = Rng(seed).at(5_000 + block).generator()
        for _ in range(1000):
            q = gen.dirichlet(np.ones(4))
            desc = StateDescriptor(d, (0, 0), q)
            rho = synthesize(desc)
            for mu in patterns:
                fast = bool(check_ppt(desc, mu).satisfied)
                dense = min_eigenvalue(partial_transpose(rho, _bob_slots(mu))) >= -1e-10
                total += 1
                agree += int(fast == dense)
    return CheckResult(
        "ppt-eigen-agreement", agree == total, f"agreement {agree}/{total}"
    )


def check_reductions(seed: int = 0) -> CheckResult:
    """Pair reductions against dense partial traces.

    Marginalizing fidelities over a pair must match tracing out that
    pair's slots; tracing out any unmatched two slots of a two-pair state
    must leave the remaining slots maximally mixed.
    """
    d, k = 2, 2
    worst = 0.0
    families: dict = {}
    for block, sigma in enumerate(all_vectors(k)):
        gen = Rng(seed).at(7_000 + block).generator()
        for _ in range(50):
            desc = StateDescriptor(d, sigma, gen.dirichlet(np.ones(2**k)))
            rho = synthesize(desc)
            for i in (1, 2):
                reduced = reduce_pair(desc, i)
                dense = _dense_fidelities(
                    partial_trace(rho, {i, k + i}), reduced.sigma, families
                )
                worst = max(worst, float(np.max(np.abs(reduced.fidelities - dense))))
            mixed = identity(d, 2).mat / d**2
            for slots in ({1, 4}, {2, 3}, {1, 2}):
                traced = partial_trace(rho, slots)
                worst = max(worst, float(np.max(np.abs(traced.mat - mixed))))
            via_pairs = synthesize(reduce_mixed_pair(desc, 1, 2))
            worst = max(worst, float(np.max(np.abs(via_pairs.mat - mixed))))
    via_formula = synthesize(maximally_mixed_pair(d))
    worst = max(worst, float(np.max(np.abs(via_formula.mat - identity(d, 2).mat / d**2))))
    return CheckResult("reduction-oracle", worst <= 1e-10, f"max deviation = {worst:.3e}")


def check_mc_convergence(seed: int = 0) -> CheckResult:
    """Monte-Carlo twirl converges to the exact projection at the
    expected square-root rate (one pair of qubits).

    The rate is estimated over 80 independent runs.  Each run's N=4000
    average is its N=1000 average plus the run's next 3000 samples (sample
    s always draws from ``rng.at(s)``), so the smaller average is the
    running prefix of the larger one; with the run count this keeps the
    error ratio tight around its mean of 2.
    """
    d = 2
    sigma = (0,)
    rho = projector_onto(d, basis_ket(d, "01"))
    target = synthesize(fidelities_of(rho, sigma))

    dist_5000 = frobenius_distance(mc_twirl(rho, sigma, 5000, Rng(seed)), target)

    errs_1000, errs_4000 = [], []
    for s in range(80):
        run = Rng(seed).at(1_000_000 + s * 10_000)
        first = mc_twirl(rho, sigma, 1000, run)
        rest = mc_twirl(rho, sigma, 3000, run.at(1000))
        errs_1000.append(frobenius_distance(first, target))
        errs_4000.append(frobenius_distance((first + rest * 3) / 4, target))
    ratio = float(np.mean(errs_1000) / np.mean(errs_4000))

    passed = dist_5000 <= 0.05 and ratio >= 1.7
    detail = f"distance at N=5000: {dist_5000:.4f}, error ratio N=1000/N=4000: {ratio:.2f}"
    return CheckResult("mc-convergence", passed, detail)


QUICK_CHECKS = (
    check_transfer_inverse,
    check_flip_partial_transpose,
    check_trace_formulas,
    check_pair_thresholds,
    check_criterion_disagreement,
    check_biseparable_construction,
)

SEEDED_CHECKS = (
    check_transform_dense,
    check_extremal_formula,
    check_ppt_sign_agreement,
    check_reductions,
    check_mc_convergence,
)


def run_checks(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    seed = Rng(seed).seed  # checked at both levels, though only "full" uses it
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results = [check() for check in QUICK_CHECKS]
    if level == "full":
        results.extend(check(seed=seed) for check in SEEDED_CHECKS)
    return results
