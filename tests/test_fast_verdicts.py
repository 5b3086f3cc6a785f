"""The transfer and verdict layers pinned bit for bit against their plain routes.

The references below are the straightforward forms of the same
computations: transfer matrices as ``reduce(np.kron, blocks)``, the
all-patterns PPT test as one single-pattern test per pattern with
``float`` per failure, and canonical JSON with one ``json.dumps`` per
string and a dict per verdict and failure.  The library's kernels must
return the same float bits and print the same bytes.
"""

import gc
import json
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import invariant_states as iv
from invariant_states import ConstraintFailure, SeparabilityVerdict, StateDescriptor, formats
from invariant_states.bits import bits_str, label
from invariant_states.projectors import pair_forms
from invariant_states.simplex import PPT_ATOL

DIMS = (2, 3, 5, 7)


def reference_pt_matrix(mu, nu, d):
    return reduce(np.kron, [pair_forms(d, n)[2] if m else np.eye(2) for m, n in zip(mu, nu)])


def reference_transform(desc, mu):
    with np.errstate(over="ignore", invalid="ignore"):
        t = desc.fidelities @ reference_pt_matrix(mu, desc.sigma, desc.d)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"transfer of mu={bits_str(mu)} overflows at d = {float(desc.d):.3g}")
    return t


def reference_ppt(desc, mu):
    t = reference_transform(desc, mu)
    name = bits_str(mu)
    failures = tuple(
        ConstraintFailure(f"mu={name},alpha={label(i, desc.K)}", float(t[i]), 0.0)
        for i in np.flatnonzero(t < -PPT_ATOL)
    )
    return SeparabilityVerdict(f"ppt:{name}", failures)


def reference_ppt_all(desc):
    failures = []
    for mu in iv.all_vectors(desc.K):
        verdict = reference_ppt(desc, mu)
        failures.extend(verdict.failures)
    return SeparabilityVerdict(
        "ppt-all", tuple(failures), biseparable=SeparabilityVerdict("bisep", verdict.failures)
    )


def reference_polytope(desc):
    k, f = desc.K, desc.fidelities
    vectors = np.array(list(iv.all_vectors(k)))
    weight = vectors.sum(axis=1)
    overlap = vectors @ np.array(desc.sigma)
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
        return list(iv.all_vectors(k))
    return [tuple(int(b) for b in gen.integers(0, 2, k)) for _ in range(2)]


def _points(d, k, seed):
    """Spread and peaked Dirichlet points and an extremal point per sigma."""
    gen = np.random.default_rng(seed)
    for sigma in _sigmas(k, gen):
        yield StateDescriptor(d, sigma, gen.dirichlet(np.ones(2**k)))
        yield StateDescriptor(d, sigma, gen.dirichlet(np.full(2**k, 0.2)))
        if k <= 5:
            yield StateDescriptor(d, sigma, iv.extremal_fidelities(sigma, gen.uniform(0, 1, k), d))


@pytest.mark.parametrize("d", DIMS + (10**150,))
@pytest.mark.parametrize("k", range(1, 8))
def test_pt_matrix_is_bitwise_the_kron_product(k, d):
    gen = np.random.default_rng(k)
    pairs = [(mu, nu) for nu in _sigmas(k, gen) for mu in iv.all_vectors(k)]
    for mu, nu in pairs[:: max(1, len(pairs) // 64)]:
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_pt_matrix(mu, nu, d)
        if not np.all(np.isfinite(want)):
            # an overflowing transfer raises instead of returning inf entries
            with pytest.raises(ValueError, match=f"^transfer of mu={bits_str(mu)} overflows"):
                iv.pt_matrix(mu, nu, d)
            continue
        got = iv.pt_matrix(mu, nu, d)
        assert got.shape == want.shape and _bits(got) == _bits(want)
        assert not got.flags.writeable


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("k", range(1, 8))
def test_verdicts_are_bitwise_the_plain_routes(k, d):
    for desc in _points(d, k, seed=1000 * k + d):
        for mu in list(iv.all_vectors(k))[:: max(1, 2**k // 8)]:
            assert _bits(iv.transform_fidelities(desc, mu)) == _bits(reference_transform(desc, mu))
        got, want = iv.check_ppt_all(desc), reference_ppt_all(desc)
        assert got.failures == want.failures
        assert got.biseparable.failures == want.biseparable.failures
        assert formats.dumps_verdict(got) == reference_dumps_verdict(want)
        got, want = iv.check_polytope(desc), reference_polytope(desc)
        assert got.failures == want.failures
        assert formats.dumps_verdict(got) == reference_dumps_verdict(want)
        mu = (1,) + desc.sigma[1:]
        got, want = iv.check_ppt(desc, mu), reference_ppt(desc, mu)
        assert got.failures == want.failures
        assert formats.dumps_verdict(got) == reference_dumps_verdict(want)


def test_points_fail_every_kind_of_constraint():
    # guard against a point set on which the comparison above is vacuous
    kinds = set()
    for k in (2, 7):
        for desc in _points(3, k, seed=1000 * k + 3):
            for f in iv.check_ppt_all(desc).failures + iv.check_polytope(desc).failures:
                kinds.add((f.constraint.split(",")[0].split("=")[0], k))
    assert kinds >= {(kind, k) for kind in ("mu", "bound", "order") for k in (2, 7)}


def _raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("sigma", [(1, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
def test_overflow_raises_the_same_error(sigma):
    k = len(sigma)
    desc = StateDescriptor(10**150, sigma, np.full(2**k, 2.0**-k))
    want = _raised(reference_ppt_all, desc)
    assert want.startswith("transfer of mu=") and want.endswith("overflows at d = 1e+150")
    assert _raised(iv.check_ppt_all, desc) == want
    mu = tuple(int(b) for b in want[len("transfer of mu=") :].split()[0])
    assert _raised(iv.transform_fidelities, desc, mu) == want
    assert _raised(iv.check_ppt, desc, mu) == want


@pytest.mark.parametrize("mu", [(1, 1, 1), (0, 1, 1, 1)])
def test_pt_matrix_overflow_raises_without_a_warning(mu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            iv.pt_matrix(mu, mu, 10**150)
    assert str(raised.value) == f"transfer of mu={bits_str(mu)} overflows at d = 1e+150"


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
    frames and arrays there)."""
    gen = np.random.default_rng(7)
    desc = StateDescriptor(3, (1, 0, 1, 1, 0, 0, 1), gen.dirichlet(np.ones(128)))
    for _ in range(2):  # the first round warms up
        gc.collect()
        gc.disable()
        try:
            verdicts = [iv.check_ppt_all(desc), iv.check_polytope(desc)]
            printed = [formats.dumps_verdict(v) for v in verdicts]
            found = gc.collect()
        finally:
            gc.enable()
    assert found == 0
    assert len(verdicts[0].failures) > 1000 and printed[1].count("order,") > 100
