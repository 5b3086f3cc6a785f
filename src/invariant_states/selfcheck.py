"""Named self-verification checks, and the dense oracles they use.

Each check exercises one closed-form claim of the library against an
independent brute-force route (dense matrices, eigenvalues, Monte Carlo)
and reports a pass/fail result with a deterministic detail string, so a
verification run with a fixed seed produces byte-identical output.  The
dense oracles :func:`_dense_fidelities` and :func:`extremal_product_state`
are defined here, beside the checks that use them; the tests use them too.

The ``quick`` level covers the deterministic algebraic identities; the
``full`` level adds the randomized dense-oracle sweeps and the
Monte-Carlo convergence study.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bits import all_vectors, as_bits, xor
from .operators import (
    Operator,
    Rng,
    frobenius_distance,
    identity,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    projector_onto,
    basis_ket,
    tensor_product,
)
from .projectors import invariant_projector, projector_trace
from .simplex import (
    StateDescriptor,
    _check_overlaps,
    check_polytope,
    check_ppt,
    check_ppt_all,
    biseparable_fidelities,
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
    detail: str = ""


def _bob_slots(mu) -> list[int]:
    k = len(mu)
    return [k + i for i in range(1, k + 1) if mu[i - 1] == 1]


def _dense_fidelities(rho: Operator, sigma, families: dict) -> np.ndarray:
    """Overlaps Tr(rho P) with dense family projectors: the brute-force
    counterpart of the library's fidelity extraction.

    ``families`` maps (d, sigma) to the family's projector matrices; each
    check passes its own dict, so projectors live for one check only.
    """
    key = (rho.d, tuple(sigma))
    if key not in families:
        families[key] = [
            invariant_projector(rho.d, sigma, alpha).mat for alpha in all_vectors(len(sigma))
        ]
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
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results = [check() for check in QUICK_CHECKS]
    if level == "full":
        results.extend(check(seed=seed) for check in SEEDED_CHECKS)
    return results
