"""The transfer and verdict layers pinned bit for bit against their plain routes.

The references below are the straightforward forms of the same
computations, written without the library's bit helpers or array code:
transfer matrices as ``reduce(np.kron, blocks)``, transformed fidelities
as a loop over Python floats that applies each transposed pair's 2 x 2
block along its own axis, the PPT tests as one loop over those values per
pattern, the polytope test as one loop per fidelity and one per pair of
fidelities with hull bounds from Python float powers, and canonical JSON
with one ``json.dumps`` per string and a dict per verdict and failure.
The library's kernels must return the same float bits and print the same
bytes.  The Kronecker product with the fidelities, a BLAS product, is the
oracle within a rounding bound, and the rational transforms of
``exact.py`` are the oracle of which PPT entries fail.
"""

import copy
import dataclasses
import gc
import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import exact
import invariant_states as iv
from invariant_states import ConstraintFailure, SeparabilityVerdict, StateDescriptor, formats, simplex
from invariant_states.cli import main
from invariant_states.projectors import pair_forms
from invariant_states.simplex import PPT_ATOL

DIMS = (2, 3, 5, 7)
# the largest local dimension; TOP - 1, the largest odd one, is the
# largest where d + 1 is exact
TOP = 2**53


def _vectors(k):
    # every bit tuple of length k, first bit most significant
    return list(product((0, 1), repeat=k))


def _name(bits):
    return "".join(str(b) for b in bits)


def reference_pt_matrix(mu, nu, d):
    return reduce(np.kron, [pair_forms(d, n)[2] if m else np.eye(2) for m, n in zip(mu, nu)])


def reference_transform(desc, mu):
    """Pair by pair, first pair first: t[.., c, ..] = t[.., 0, ..] * B[0][c] +
    t[.., 1, ..] * B[1][c] along axis i for each transposed pair i, in
    Python floats."""
    k, t = desc.K, desc.fidelities.tolist()
    for i, (m, s) in enumerate(zip(mu, desc.sigma)):
        if not m:
            continue
        b = pair_forms(desc.d, s)[2].tolist()
        half = 2 ** (k - 1 - i)
        for lo in range(0, 2**k, 2 * half):
            for j in range(lo, lo + half):
                x0, x1 = t[j], t[j + half]
                t[j] = x0 * b[0][0] + x1 * b[1][0]
                t[j + half] = x0 * b[0][1] + x1 * b[1][1]
    return np.array(t)


def reference_ppt(desc, mu):
    failures = tuple(
        ConstraintFailure(f"mu={_name(mu)},alpha={_name(alpha)}", value, 0.0)
        for alpha, value in zip(_vectors(desc.K), reference_transform(desc, mu).tolist())
        if value < -PPT_ATOL
    )
    return SeparabilityVerdict(f"ppt:{_name(mu)}", failures)


def reference_ppt_all(desc):
    failures = []
    for mu in _vectors(desc.K):
        verdict = reference_ppt(desc, mu)
        failures.extend(verdict.failures)
    return SeparabilityVerdict(
        "ppt-all", tuple(failures), biseparable=SeparabilityVerdict("bisep", verdict.failures, necessary_only=True)
    )


def reference_polytope(desc):
    f = desc.fidelities.tolist()
    vectors = _vectors(desc.K)
    failures = []
    for alpha, value in zip(vectors, f):
        overlap = sum(s & a for s, a in zip(desc.sigma, alpha))
        bound = (0.5 ** sum(alpha)) * (2.0 / desc.d) ** overlap
        if value > bound + PPT_ATOL:
            failures.append(ConstraintFailure(f"bound,alpha={_name(alpha)}", value, bound))
    for alpha, value in zip(vectors, f):
        for beta, other in zip(vectors, f):
            if sum(alpha) > sum(beta) and value > other + PPT_ATOL:
                failures.append(ConstraintFailure(f"order,alpha={_name(alpha)},beta={_name(beta)}", value, other))
    return SeparabilityVerdict("polytope", tuple(failures), necessary_only=True)


def reference_canonical_json(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} is not representable in JSON")
        return format(value, ".17g")
    if isinstance(value, dict):
        items = (
            f"{json.dumps(k, ensure_ascii=False)}:{reference_canonical_json(value[k])}" for k in sorted(value)
        )
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(reference_canonical_json, value)) + "]"
    return json.dumps(value, ensure_ascii=False)


def reference_verdict_dict(verdict):
    out = {
        "criterion": verdict.criterion,
        "outcome": verdict.outcome,
        "failures": [{"constraint": f.constraint, "value": f.value, "bound": f.bound} for f in verdict.failures],
    }
    if verdict.necessary_only:
        out["necessary_only"] = True
    if verdict.biseparable is not None:
        out["biseparable"] = reference_verdict_dict(verdict.biseparable)
    return out


def reference_dumps_verdict(verdict):
    return reference_canonical_json(reference_verdict_dict(verdict)) + "\n"


def _bits(a: np.ndarray) -> bytes:
    # the raw float bits, so that 0.0 and -0.0 differ
    return np.ascontiguousarray(a).tobytes()


def _sigmas(k, gen):
    if k <= 3:
        return _vectors(k)
    return [tuple(int(b) for b in gen.integers(0, 2, k)) for _ in range(2)]


def _points(d, k, seed):
    """Per sigma: spread and peaked Dirichlet points, an extremal point, the
    uniform point, the all-ones vertex and a point whose all-ones fidelity
    sits exactly at its hull bound; at K = 1 also the two threshold points,
    where the transformed vector has an exact zero."""
    gen = np.random.default_rng(seed)
    for sigma in _sigmas(k, gen):
        yield StateDescriptor(d, sigma, gen.dirichlet(np.ones(2**k)))
        yield StateDescriptor(d, sigma, gen.dirichlet(np.full(2**k, 0.2)))
        yield StateDescriptor(d, sigma, iv.extremal_fidelities(sigma, gen.uniform(0, 1, k), d))
        yield StateDescriptor(d, sigma, np.full(2**k, 2.0**-k))
        yield StateDescriptor(d, sigma, np.eye(2**k)[-1])
        bound = 0.5**k * (2.0 / d) ** sum(sigma)
        at_bound = np.full(2**k, (1.0 - bound) / (2**k - 1))
        at_bound[-1] = bound
        yield StateDescriptor(d, sigma, at_bound)
    if k == 1:
        for sigma, t in (((0,), 0.5), ((1,), 1.0 / d)):
            yield StateDescriptor(d, sigma, [1.0 - t, t])


@pytest.mark.parametrize("d", DIMS + (TOP - 1, TOP))
@pytest.mark.parametrize("k", range(1, 8))
def test_pt_matrix_is_bitwise_the_kron_product(k, d):
    gen = np.random.default_rng(k)
    pairs = [(mu, nu) for nu in _sigmas(k, gen) for mu in iv.all_vectors(k)]
    for mu, nu in pairs[:: max(1, len(pairs) // 64)]:
        want = reference_pt_matrix(mu, nu, d)
        got = iv.pt_matrix(mu, nu, d)
        assert got.shape == want.shape and _bits(got) == _bits(want)
        assert not got.flags.writeable


def test_writing_a_returned_transfer_leaves_later_transfers_alone():
    # the K=1 identity transfer is the identity block itself; a caller who
    # turns writing back on, through the array or its owner, changes only
    # their own copy
    desc = StateDescriptor(2, (0,), np.array([0.25, 0.75]))
    for _ in range(2):
        m = iv.pt_matrix((0,), (0,), 2)
        owner = m if m.base is None else m.base
        owner.setflags(write=True)
        owner[...] = 5.0
    assert _bits(iv.pt_matrix((0,), (0,), 2)) == _bits(np.eye(2))
    assert _bits(iv.transform_fidelities(desc, (0,))) == _bits(desc.fidelities @ np.eye(2))
    assert iv.check_ppt_all(desc) == reference_ppt_all(desc)


@pytest.mark.parametrize("d", DIMS + (TOP,))
@pytest.mark.parametrize("k", range(1, 8))
def test_verdicts_are_bitwise_the_plain_routes(k, d):
    for desc in _points(d, k, seed=1000 * k + d):
        for mu in list(iv.all_vectors(k))[:: max(1, 2**k // 8)]:
            assert _bits(iv.transform_fidelities(desc, mu)) == _bits(reference_transform(desc, mu))
        got, want = iv.check_ppt_all(desc), reference_ppt_all(desc)
        assert got.failures == want.failures
        assert got.biseparable.failures == want.biseparable.failures
        assert formats.dumps_verdict(got) == reference_dumps_verdict(want)
        # the standalone bisep verdict is the copy that ppt-all embeds
        assert formats.dumps_verdict(simplex._check_bisep(desc)) == reference_dumps_verdict(want.biseparable)
        mu = (1,) + desc.sigma[1:]
        got, want = iv.check_ppt(desc, mu), reference_ppt(desc, mu)
        assert got.failures == want.failures
        assert formats.dumps_verdict(got) == reference_dumps_verdict(want)


@pytest.mark.parametrize("d", DIMS + (TOP - 1, TOP))
@pytest.mark.parametrize("k", range(1, 8))
def test_polytope_is_bitwise_the_loop_reference(k, d):
    for desc in _points(d, k, seed=1000 * k + d):
        got, want = iv.check_polytope(desc), reference_polytope(desc)
        assert got.failures == want.failures
        assert formats.dumps_verdict(got) == reference_dumps_verdict(want)


@pytest.mark.parametrize("k", range(1, 8))
def test_transforms_are_within_rounding_of_the_kron_oracle(k):
    """Each entry of the pair-by-pair transform lies within (3K + 2^K) eps
    (|f| @ |M|) of f @ M, M the Kronecker transfer: each of at most K
    steps rounds two products and a sum, and the product with M sums 2^K
    terms."""
    eps = np.finfo(float).eps
    for d in DIMS:
        for desc in _points(d, k, seed=2000 * k + d):
            for mu in iv.all_vectors(k):
                m = reference_pt_matrix(mu, desc.sigma, d)
                bound = (3 * k + 2**k) * eps * (np.abs(desc.fidelities) @ np.abs(m))
                error = np.abs(iv.transform_fidelities(desc, mu) - desc.fidelities @ m)
                assert np.all(error <= bound)


@pytest.mark.parametrize("d", DIMS)
def test_exact_transposition_blocks_round_to_pair_forms(d):
    # each entry is one correctly rounded quotient, as numpy forms it
    for s in (0, 1):
        assert [[float(x) for x in row] for row in exact.transpose_block(d, s)] == pair_forms(d, s)[2].tolist()


def _failures(verdict):
    # {(mu, alpha): value} over a PPT verdict's failure rows, as bit tuples
    out = {}
    for name, value, _ in verdict.failures:
        mu, alpha = name.removeprefix("mu=").split(",alpha=")
        out[tuple(map(int, mu)), tuple(map(int, alpha))] = value
    return out


@pytest.mark.parametrize("seed, k", [(0, 3), (1, 5), (2, 7)])
def test_ppt_failure_sets_are_the_exact_ones(seed, k):
    """The failures of ppt-all and of the all-ones pattern are exactly the
    (mu, alpha) whose transformed entry, in rational arithmetic, is below
    -PPT_ATOL, and each printed value lies within 3K eps (|f| @ |M|) of
    that entry, M the Kronecker transfer of mu."""
    sigma = (1, 0, 1, 1, 0, 0, 1)[:k]
    desc = StateDescriptor(3, sigma, np.random.default_rng(seed).dirichlet(np.ones(2**k)))
    want = exact.ppt_failures(desc.fidelities.tolist(), sigma, 3, PPT_ATOL)
    ones = {key: entry for key, entry in want.items() if key[0] == (1,) * k}
    scales = {}
    for verdict, entries in ((iv.check_ppt_all(desc), want), (iv.check_ppt(desc, (1,) * k), ones)):
        got = _failures(verdict)
        assert got.keys() == entries.keys()
        for (mu, alpha), value in got.items():
            if mu not in scales:
                scales[mu] = np.abs(desc.fidelities) @ np.abs(reference_pt_matrix(mu, sigma, 3))
            bound = 3 * k * np.finfo(float).eps * scales[mu][int(_name(alpha), 2)]
            assert abs(value - entries[mu, alpha]) <= bound
    assert len(want) > 20 * 4 ** (k - 3) and ones


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("k", [3, 5])
def test_exact_separable_coordinates_are_nonnegative_exactly_when_every_pattern_passes(k, d):
    """In rational arithmetic, p = f @ (x)_i B_i^-1 >= 0 holds exactly when
    no pattern has an entry below 0: on Dirichlet points, on vertex
    mixtures with half their weights 0, whose p has exact zeros, and on
    those mixtures with one zero weight moved to -2^-60."""
    gen = np.random.default_rng(10 * k + d)
    sigma = tuple(gen.permutation([0, 1] * k)[:k].tolist())
    points = [gen.dirichlet(np.ones(2**k)).tolist() for _ in range(2)]
    for _ in range(2):
        weights = gen.dirichlet(np.ones(2**k))
        zeros = gen.permutation(2**k)[: 2 ** (k - 1)]
        weights[zeros] = 0.0
        f = exact.mixture(weights.tolist(), sigma, d)
        assert exact.barycentric(f, sigma, d) == weights.tolist()
        weights[zeros[0]] = -(2.0**-60)
        points += [f, exact.mixture(weights.tolist(), sigma, d)]
    outcomes = []
    for f in points:
        p = exact.barycentric(f, sigma, d)
        outcomes.append(min(p) >= 0)
        assert outcomes[-1] == (not exact.ppt_failures(f, sigma, d, 0))
    assert outcomes[2:] == [True, False, True, False]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("delta", [-1e-6, 1e-6])
def test_pair_threshold_probes_fail_exactly_where_the_exact_oracle_does(d, s, delta):
    # the pair-thresholds self-check's probes: weight 1e-6 either side of
    # 1/2 (Werner-split) or 1/d (isotropic) on the entangled member
    q = (0.5 if s == 0 else 1.0 / d) + delta
    desc = StateDescriptor(d, (s,), np.array([1.0 - q, q]))
    want = exact.ppt_failures(desc.fidelities.tolist(), (s,), d, PPT_ATOL)
    assert _failures(iv.check_ppt_all(desc)).keys() == want.keys()
    assert bool(want) == (delta > 0)


def test_transforms_and_criteria_never_call_matmul(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.matmul called")

    monkeypatch.setattr(np, "matmul", refuse)
    for d in (3, TOP):
        desc = StateDescriptor(d, (1, 0, 1), np.random.default_rng(3).dirichlet(np.ones(8)))
        for mu in iv.all_vectors(3):
            iv.transform_fidelities(desc, mu)
            iv.check_ppt(desc, mu)
        iv.check_ppt_all(desc)


def test_ppt_all_is_the_per_pattern_ppt_at_k9():
    desc = StateDescriptor(3, (1, 0, 1, 1, 0, 0, 1, 0, 1), np.random.default_rng(9).dirichlet(np.ones(2**9)))
    got = iv.check_ppt_all(desc)
    want = [iv.check_ppt(desc, mu) for mu in iv.all_vectors(9)]
    assert got.failures == sum((v.failures for v in want), ()) and got.failures
    assert got.biseparable.failures == want[-1].failures


@pytest.mark.parametrize("k", [1, 4])
def test_the_identity_transform_is_a_fresh_writable_array(k):
    desc = StateDescriptor(2, (0,) * k, np.full(2**k, 2.0**-k))
    t = iv.transform_fidelities(desc, (0,) * k)
    assert t is not desc.fidelities and not np.shares_memory(t, desc.fidelities)
    assert t.flags.writeable and _bits(t) == _bits(desc.fidelities)
    t[0] = 5.0
    assert desc.fidelities[0] == 2.0**-k


def test_points_fail_every_kind_of_constraint():
    # guard against a point set on which the comparisons above are vacuous:
    # at the smallest and the largest K, some point fails a PPT pattern, a
    # hull bound and an order constraint
    kinds = set()
    for k in (1, 7):
        for desc in _points(3, k, seed=1000 * k + 3):
            for f in iv.check_ppt_all(desc).failures + iv.check_polytope(desc).failures:
                kinds.add((f.constraint.split(",")[0].split("=")[0], k))
    assert kinds >= {(kind, k) for kind in ("mu", "bound", "order") for k in (1, 7)}


def test_bound_values_keep_python_float_powers():
    # numpy's array ** gives 0.44444444444444436 for (2/3)**2 on some
    # builds; the bound must equal Python's 0.4444444444444444 exactly
    desc = StateDescriptor(3, (1, 1), [0.0, 0.0, 0.0, 1.0])
    bounds = {f.constraint: f.bound for f in iv.check_polytope(desc).failures}
    assert bounds["bound,alpha=11"] == 0.25 * (2.0 / 3) ** 2
    assert '"bound":0.1111111111111111' in formats.dumps_verdict(iv.check_polytope(desc))


def test_the_largest_transfer_at_k12_is_finite_without_a_warning():
    """At the largest d and K = 12 isotropic pairs, the all-ones transfer
    has the largest entry of any, ((d + 1) / 2)^12 = 2^624 in floats, and
    the vertex 1...1 meets it: the transforms and the criteria give finite
    values and warn nowhere."""
    ones = (1,) * 12
    desc = StateDescriptor(TOP, ones, np.eye(2**12)[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = iv.transform_fidelities(desc, ones)
        verdict = iv.check_ppt_all(desc)
        mat = iv.pt_matrix(ones, ones, TOP)  # 128 MiB
        peak = max(mat.max(), -mat.min())
        del mat
    assert np.isfinite(t).all() and np.abs(t).max() == 2.0**624 == peak
    assert _bits(t) == _bits(reference_transform(desc, ones))
    assert verdict.biseparable.failures == iv.check_ppt(desc, ones).failures
    assert len(verdict.biseparable.failures) == 2**11


def _top_points():
    # at the two largest d, the largest odd one, where d + 1 is exact, and
    # 2**53, where d + 1 rounds to d: the uniform point, and the vertex 1...1
    # with its fidelity just above 1, so that the magnitudes sum above 1
    for k in range(2, 13):
        for d in (TOP - 1, TOP):
            for sigma in ((1,) * k, (0,) + (1,) * (k - 1), (1,) * (k - 1) + (0,)):
                yield StateDescriptor(d, sigma, np.full(2**k, 2.0**-k))
                yield StateDescriptor(d, sigma, np.eye(2**k)[-1] * (1.0 + 1e-11))


def _top_id(desc) -> str:
    point = "above-1" if desc.fidelities[-1] > 1.0 else "spread"
    return f"K={desc.K},d={desc.d},sigma={_name(desc.sigma)},{point}"


@pytest.mark.parametrize("desc", _top_points(), ids=_top_id)
def test_top_d_transforms_are_bitwise_within_the_bound_without_a_warning(desc):
    """At d near 2**53 and K up to 12, each transform is the per-axis
    reference bit for bit and within the bound written at
    simplex._step: the magnitudes of the fidelities times d per
    transposed isotropic pair and 2 per transposed Werner pair, at most
    2 d^K.  The criteria warn nowhere, and every hull bound is a normal
    float, 2^-636 at the smallest.  Up to K = 7 every pattern is checked
    and ppt-all and the polytope test are their loop references; above,
    8 patterns and 1...1, whose PPT test is its reference.  Above K = 9
    ppt-all is left to the K=12 test above, and the polytope test is run
    at the uniform point of the all-isotropic sigma only."""
    k, d = desc.K, float(desc.d)
    mus = list(iv.all_vectors(k))
    if k > 7:
        mus = mus[:: 2**k // 8] + [(1,) * k]
    total = float(np.abs(desc.fidelities).sum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in mus:
            t = iv.transform_fidelities(desc, mu)
            assert _bits(t) == _bits(reference_transform(desc, mu))
            bound = total * math.prod(d if s else 2.0 for m, s in zip(mu, desc.sigma) if m)
            assert np.abs(t).max() <= bound <= 2.0 * d**k
        if k <= 9:
            got = iv.check_ppt_all(desc)
            if k <= 7:
                want = reference_ppt_all(desc)
                assert got.failures == want.failures and got.biseparable.failures == want.biseparable.failures
        if k > 7:
            assert iv.check_ppt(desc, mus[-1]).failures == reference_ppt(desc, mus[-1]).failures
        if k <= 9 or desc.fidelities[-1] <= 1.0 and all(desc.sigma):
            polytope = iv.check_polytope(desc)
            hull = [f.bound for f in polytope.failures if f.constraint.startswith("bound,")]
            assert hull and min(hull) == 0.5**k * (2.0 / d) ** sum(desc.sigma) >= np.finfo(float).tiny
            if k <= 7:
                assert polytope.failures == reference_polytope(desc).failures


# control, escape, non-ASCII, line-separator, lone-surrogate and astral characters
texts = st.text(
    st.characters()
    | st.sampled_from('"\\/\x00\x08\t\n\r\x1f\x7f\x80\xa0\u2028\u2029\ud800\udfff\U0001f600')
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | texts,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=20,
)


@given(value=json_values)
def test_canonical_json_is_json_dumps_per_string(value):
    assert formats.canonical_json(value) == reference_canonical_json(value)


@given(text=texts)
def test_verdict_strings_are_escaped_as_json_dumps(text):
    failure = ConstraintFailure(text, -0.5, 0.0)
    verdict = SeparabilityVerdict(text, (failure,), biseparable=SeparabilityVerdict(text, (failure,) * 2))
    assert formats.dumps_verdict(verdict) == reference_dumps_verdict(verdict)


def test_criteria_and_writer_leave_no_garbage():
    """One call of each at K=7 allocates no reference cycle, so nothing is
    left for the cyclic collector (a recursive closure would leave its
    frames and arrays there): the criteria and their failure builder, the
    transfer route, and the writer's routes for checker and hand-built
    verdicts."""
    gen = np.random.default_rng(7)
    desc = StateDescriptor(3, (1, 0, 1, 1, 0, 0, 1), gen.dirichlet(np.ones(128)))
    mixed = SeparabilityVerdict("mixed", tuple(ConstraintFailure("é", i, np.float64(-0.5)) for i in range(100)))
    for _ in range(2):  # the first round warms up
        gc.collect()
        gc.disable()
        try:
            verdicts = [iv.check_ppt_all(desc), iv.check_polytope(desc), iv.check_ppt(desc, (1,) * 7), mixed]
            transforms = [iv.transform_fidelities(desc, (1, 0) * 3 + (1,)), iv.pt_matrix((1,) * 7, desc.sigma, 3)]
            printed = [formats.dumps_verdict(v) for v in verdicts]
            failures = [v.failures for v in verdicts]
            found = gc.collect()
        finally:
            gc.enable()
    assert found == 0
    assert len(failures[0]) > 1000 and printed[1].count("order,") > 100
    assert verdicts[2].failures and len(transforms) == 2 and printed[3].count('"é"') == 100


def test_constraint_failure_is_a_named_tuple():
    by_position = ConstraintFailure("mu=1,alpha=1", -0.25, 0.0)
    by_keyword = ConstraintFailure(bound=0.0, value=-0.25, constraint="mu=1,alpha=1")
    assert by_position == by_keyword == ("mu=1,alpha=1", -0.25, 0.0)
    assert (by_position.constraint, by_position.value, by_position.bound) == tuple(by_position)
    name, value, bound = by_position
    assert (name, value, bound) == by_position and hash(by_position) == hash(("mu=1,alpha=1", -0.25, 0.0))
    assert repr(by_position) == "ConstraintFailure(constraint='mu=1,alpha=1', value=-0.25, bound=0.0)"
    with pytest.raises(AttributeError):
        by_position.value = 1.0
    with pytest.raises(TypeError):
        by_position[1] = 1.0
    with pytest.raises(TypeError):
        ConstraintFailure("mu=1,alpha=1", -0.25)
    # the failures the criteria build are instances, with Python leaves
    desc = StateDescriptor(2, (0, 1), np.array([0.1, 0.1, 0.1, 0.7]))
    verdicts = iv.check_ppt_all(desc), iv.check_polytope(desc), iv.check_ppt(desc, (1, 1))
    for failure in sum((v.failures for v in verdicts), ()):
        assert type(failure) is ConstraintFailure
        assert list(map(type, failure)) == [str, float, float]


# a pool of leaves, each reused by object: signed zeros, a subnormal, the
# float extremes, the 17-digit integer edge, Python and numpy numbers, and
# escaped and non-ASCII strings
_POOL = (
    0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 0.1, -1.0 / 3, 1, -7, True, False, np.float64(-0.0),
    np.float64(2.0 / 3), "mu=01,alpha=10", "é\u2028", '"\\/\x00', "\U0001f600",
)
_FLOATS = tuple(x for x in _POOL if type(x) is float)
_TEXTS = tuple(x for x in _POOL if type(x) is str)


@given(
    columns=st.sampled_from([_POOL, _FLOATS, _TEXTS]).flatmap(
        lambda pool: st.tuples(*[st.lists(st.sampled_from(pool), min_size=150, max_size=150)] * 3)
    ),
    size=st.sampled_from([1, 5, 63, 64, 65, 150]),
)
def test_failure_columns_are_canonical_json_per_leaf(columns, size):
    """Columns of shared finite floats, of strings and of mixed leaves,
    short and long enough to be sampled, print what canonical_json prints
    leaf by leaf."""
    failures = tuple(ConstraintFailure(*leaves) for leaves in zip(*(c[:size] for c in columns)))
    verdict = SeparabilityVerdict("columns", failures, necessary_only=True)
    assert formats.dumps_verdict(verdict) == reference_dumps_verdict(verdict)


def test_failure_columns_keep_each_signed_zero_object():
    # 0.0 and -0.0 are equal and hash alike, so float objects are shared by
    # identity, never by value
    zeros = [0.0, -0.0] * 50
    verdict = SeparabilityVerdict("zeros", tuple(ConstraintFailure("z", z, z) for z in zeros))
    printed = formats.dumps_verdict(verdict)
    assert printed == reference_dumps_verdict(verdict) and printed.count('"value":-0') == 50


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
def test_failure_columns_reject_non_finite_floats(bad):
    # the last item of a column, and every item of a column of one object
    for size in (1, 100):
        for failures in (
            (ConstraintFailure("c", 0.5, 0.5),) * (size - 1) + (ConstraintFailure("c", bad, 0.5),),
            (ConstraintFailure("c", bad, 0.5),) * size,
        ):
            with pytest.raises(ValueError, match="non-finite float"):
                formats.dumps_verdict(SeparabilityVerdict("bad", failures))


# ---------------------------------------------------------------------------
# verdicts that keep their failures as columns


def _violating_point(k=7):
    # fails many PPT patterns, hull bounds and order constraints
    return StateDescriptor(3, (1, 0, 1, 1, 0, 0, 1)[:k], np.random.default_rng(7).dirichlet(np.ones(2**k)))


def test_checkers_and_writer_make_no_constraint_failure(monkeypatch, tmp_path, capsys):
    """Each failure the criteria print is made as a ConstraintFailure only
    when ``failures`` is read: the spy counts every instance freed, so one
    made and dropped on the way counts too."""
    made = []

    class Spy(ConstraintFailure):
        __slots__ = ()

        def __del__(self):
            made.append(self.constraint)

    monkeypatch.setattr(simplex, "ConstraintFailure", Spy)
    desc = _violating_point()
    path = tmp_path / "d.json"
    path.write_text(formats.dumps_descriptor(desc))
    verdicts = [iv.check_ppt_all(desc), iv.check_polytope(desc), iv.check_ppt(desc, (1,) * 7)]
    printed = [formats.dumps_verdict(v) for v in verdicts]
    assert [v.satisfied for v in verdicts] == [False] * 3 and verdicts[0].biseparable.outcome == "violated"
    assert main(["check", "--in", str(path), "--criterion", "bisep"]) == 0
    assert capsys.readouterr().out == formats.dumps_verdict(verdicts[0].biseparable)
    del verdicts
    gc.collect()
    assert made == [] and sum(p.count('"constraint"') for p in printed) > 10_000
    # the spy sees the failures once they are read
    verdict = iv.check_ppt(desc, (1,) * 7)
    assert verdict.failures and all(type(f) is Spy for f in verdict.failures)
    del verdict
    assert made


def _rebuilt(verdict):
    # the same verdict through the public constructor, from its failures
    bisep = None if verdict.biseparable is None else _rebuilt(verdict.biseparable)
    return SeparabilityVerdict(verdict.criterion, verdict.failures, verdict.necessary_only, bisep)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_checker_verdicts_equal_the_verdicts_built_from_their_failures(k):
    for desc in _points(5, k, seed=3000 + k):
        for check in (iv.check_ppt_all, iv.check_polytope, lambda desc: iv.check_ppt(desc, (1,) + desc.sigma[1:])):
            # each comparison on a fresh verdict, whose failures are not read yet
            built = _rebuilt(check(desc))
            assert check(desc) == built and built == check(desc) and hash(check(desc)) == hash(built)
            assert repr(check(desc)) == repr(built)
            verdict = check(desc)
            assert (verdict.satisfied, verdict.outcome) == (built.satisfied, built.outcome)
            printed = formats.dumps_verdict(verdict)
            assert printed == formats.dumps_verdict(built) == reference_dumps_verdict(built)
            assert verdict.failures == built.failures and formats.dumps_verdict(verdict) == printed
            for copier in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
                copied = copier(check(desc))
                assert "failures" not in vars(copied) and copied == built and formats.dumps_verdict(copied) == printed


def test_checker_verdicts_are_frozen_like_built_ones():
    verdict = iv.check_ppt_all(_violating_point(3))
    # a checker's verdict holds no tuple before its first read
    assert "failures" not in vars(verdict) and "failures" not in vars(verdict.biseparable)
    built = _rebuilt(verdict)
    names = ["criterion", "failures", "necessary_only", "biseparable"]
    assert [f.name for f in dataclasses.fields(SeparabilityVerdict)] == names
    for v in (verdict, built):
        # only failures is made on demand
        with pytest.raises(AttributeError) as info:
            getattr(v, "other")
        assert info.value.args == ("other",)
        for name in names + ["satisfied", "other"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            del v.failures
    assert verdict == built and dataclasses.asdict(verdict) == dataclasses.asdict(built)
    renamed = dataclasses.replace(verdict, criterion="renamed")
    assert renamed.failures == verdict.failures and renamed.biseparable is verdict.biseparable
    # the public constructor: failures is required, positional or keyword
    with pytest.raises(TypeError):
        SeparabilityVerdict("x")
    assert SeparabilityVerdict("x", ()).satisfied
    assert SeparabilityVerdict(failures=(), criterion="x") == SeparabilityVerdict("x", ())
    assert repr(SeparabilityVerdict("x", ())) == (
        "SeparabilityVerdict(criterion='x', failures=(), necessary_only=False, biseparable=None)"
    )
    # an instance made without the constructor has no failures to build
    with pytest.raises(AttributeError):
        object.__new__(SeparabilityVerdict).failures


@pytest.mark.parametrize("entries", [1, 2**8, 2**12])
def test_ppt_all_by_blocks_of_patterns_is_bitwise_one_block(monkeypatch, entries):
    # one, two and 32 patterns per step at K=7, against all 64 of the last pair at once
    desc = _violating_point()
    whole = iv.check_ppt_all(desc)
    monkeypatch.setattr(simplex, "_STEP_ENTRIES", entries)
    blocks = iv.check_ppt_all(desc)
    assert repr(blocks) == repr(whole) and formats.dumps_verdict(blocks) == formats.dumps_verdict(whole)


_PPT_ALL_GROWTH = """
import resource
import numpy as np
import invariant_states as iv
sigma = (0, 1) * 6
desc = iv.StateDescriptor(3, sigma, iv.extremal_fidelities(sigma, np.linspace(0.1, 0.9, 12), 3))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
verdict = iv.check_ppt_all(desc)
print(verdict.outcome, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_ppt_all_at_k12_holds_the_rows_and_little_more():
    """At K=12 the (2^K, 2^K) rows take 128 MiB.  The steps go by blocks of
    patterns, so the peak grows by less than a quarter more; a whole step
    at the last pair held half the rows again, 192 MiB in all.  The child
    is started from a fresh interpreter, whose small peak RSS is all it
    carries across exec."""
    env = dict(os.environ, PYTHONPATH=str(Path(iv.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    hop = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"
    report = subprocess.run([sys.executable, "-c", hop, _PPT_ALL_GROWTH], env=env, capture_output=True, text=True,
                            check=True, timeout=120)
    outcome, growth_kib = report.stdout.split()
    assert outcome == "satisfied" and int(growth_kib) < 160 * 1024
