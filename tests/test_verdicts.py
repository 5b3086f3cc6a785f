"""Verdicts pinned byte for byte against entry-by-entry reference loops.

The references walk bit tuples one fidelity (or one pair of fidelities) at
a time, in the order the verdicts list their failures, and compute hull
bounds with Python float powers.  The library's array form must serialize
to the same bytes: same failures, same order, same 17-digit values.
"""

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import ConstraintFailure, SeparabilityVerdict, StateDescriptor, formats
from invariant_states.simplex import PPT_ATOL


def _from_index(index, k):
    return tuple((index >> (k - 1 - j)) & 1 for j in range(k))


def _name(bits):
    return "".join(str(b) for b in bits)


def reference_ppt(desc, mu):
    failures = []
    for idx, value in enumerate(iv.transform_fidelities(desc, mu)):
        if value < -PPT_ATOL:
            alpha = _from_index(idx, desc.K)
            failures.append(
                ConstraintFailure(f"mu={_name(mu)},alpha={_name(alpha)}", float(value), 0.0)
            )
    return failures


def reference_ppt_all(desc):
    failures = []
    for mu in iv.all_vectors(desc.K):
        failures.extend(reference_ppt(desc, mu))
    bisep = SeparabilityVerdict("bisep", tuple(reference_ppt(desc, (1,) * desc.K)))
    return SeparabilityVerdict("ppt-all", tuple(failures), biseparable=bisep)


def reference_polytope(desc):
    failures = []
    f = desc.fidelities
    vectors = list(iv.all_vectors(desc.K))
    weights = [sum(v) for v in vectors]
    for idx, alpha in enumerate(vectors):
        overlap = sum(s & a for s, a in zip(desc.sigma, alpha))
        bound = (0.5 ** sum(alpha)) * (2.0 / desc.d) ** overlap
        if f[idx] > bound + PPT_ATOL:
            failures.append(ConstraintFailure(f"bound,alpha={_name(alpha)}", float(f[idx]), bound))
    for i, alpha in enumerate(vectors):
        for j, beta in enumerate(vectors):
            if weights[i] > weights[j] and f[i] > f[j] + PPT_ATOL:
                failures.append(
                    ConstraintFailure(
                        f"order,alpha={_name(alpha)},beta={_name(beta)}", float(f[i]), float(f[j])
                    )
                )
    return SeparabilityVerdict("polytope", tuple(failures), necessary_only=True)


def _points(d, k, seed):
    """Dirichlet (spread and peaked), extremal, uniform, vertex and threshold points."""
    gen = np.random.default_rng(seed)
    for _ in range(2 if k < 6 else 1):
        sigma = tuple(int(b) for b in gen.integers(0, 2, k))
        yield StateDescriptor(d, sigma, gen.dirichlet(np.ones(2**k)))
        yield StateDescriptor(d, sigma, gen.dirichlet(np.full(2**k, 0.2)))
        yield StateDescriptor(d, sigma, iv.extremal_fidelities(sigma, gen.uniform(0, 1, k), d))
    sigma = tuple(int(b) for b in gen.integers(0, 2, k))
    yield StateDescriptor(d, sigma, np.full(2**k, 2.0**-k))
    vertex = np.zeros(2**k)
    vertex[-1] = 1.0
    yield StateDescriptor(d, sigma, vertex)
    # the all-ones fidelity exactly at its hull bound, the rest spread evenly
    bound = 0.5**k * (2.0 / d) ** sum(sigma)
    at_bound = np.full(2**k, (1.0 - bound) / (2**k - 1))
    at_bound[-1] = bound
    yield StateDescriptor(d, sigma, at_bound)
    if k == 1:
        for s, t in (((0,), 0.5), ((1,), 1.0 / d)):
            yield StateDescriptor(d, s, [1.0 - t, t])


@pytest.mark.parametrize("d", (2, 3, 5))
@pytest.mark.parametrize("k", range(1, 8))
def test_verdicts_match_reference_bytes(k, d):
    for desc in _points(d, k, seed=100 * k + d):
        got = formats.dumps_verdict(iv.check_ppt_all(desc))
        assert got == formats.dumps_verdict(reference_ppt_all(desc))
        got = formats.dumps_verdict(iv.check_polytope(desc))
        assert got == formats.dumps_verdict(reference_polytope(desc))
        mu = (1,) + desc.sigma[1:]
        got = formats.dumps_verdict(iv.check_ppt(desc, mu))
        want = SeparabilityVerdict(f"ppt:{_name(mu)}", tuple(reference_ppt(desc, mu)))
        assert got == formats.dumps_verdict(want)


def test_reference_points_exercise_every_failure_kind():
    # guard against a point set on which the comparison above is vacuous
    kinds = set()
    for k in (1, 3):
        for d in (2, 3):
            for desc in _points(d, k, seed=100 * k + d):
                for f in iv.check_ppt_all(desc).failures + iv.check_polytope(desc).failures:
                    kinds.add((f.constraint.split(",")[0].split("=")[0], k >= 3))
    assert kinds >= {("mu", False), ("mu", True), ("bound", True), ("order", True)}


def test_bound_values_keep_python_float_powers():
    # numpy's array ** gives 0.44444444444444436 for (2/3)**2 on some
    # builds; the bound must equal Python's 0.4444444444444444 exactly
    desc = StateDescriptor(3, (1, 1), [0.0, 0.0, 0.0, 1.0])
    bounds = {f.constraint: f.bound for f in iv.check_polytope(desc).failures}
    assert bounds["bound,alpha=11"] == 0.25 * (2.0 / 3) ** 2
    assert '"bound":0.1111111111111111' in formats.dumps_verdict(iv.check_polytope(desc))
