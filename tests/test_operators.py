import warnings

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import Operator, Rng, formats
from invariant_states.operators import _Fresh, _haar_sample
from invariant_states.selfcheck import (
    basis_ket,
    biseparable_fidelities,
    frobenius_distance,
    identity,
    invariant_projector,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    projector_onto,
    tensor_product,
)


def member(d, s, a):
    # member a of the one-pair family s
    return invariant_projector(d, (s,), (a,))


def flip(d):
    # the exchange operator F: the difference of the two Werner-split members
    return member(d, 0, 0) - member(d, 0, 1)


def random_hermitian(d, n, seed):
    gen = np.random.default_rng(seed)
    side = d**n
    m = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    return Operator(d, n, (m + m.conj().T) / 2)


def random_state(d, n, seed):
    gen = np.random.default_rng(seed)
    side = d**n
    m = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    rho = m @ m.conj().T
    return Operator(d, n, rho / np.trace(rho))


# --- construction ---------------------------------------------------------


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(1, 1, np.eye(1))
    with pytest.raises(ValueError):
        Operator(2, 0, np.eye(1))
    with pytest.raises(ValueError):
        Operator(2, 2, np.eye(3))
    with pytest.raises(ValueError):
        Operator(2, 13, np.eye(4))  # side 8192 exceeds the supported scale
    op = Operator(np.int64(2), np.int64(2), np.eye(4))
    assert (type(op.d), type(op.n), op.side) == (int, int, 4)


def test_operator_matrix_is_frozen():
    op = identity(2, 1)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_operator_copies_arrays_it_does_not_own():
    m = np.eye(4, dtype=complex)
    op = Operator(2, 2, m)
    assert m.flags.writeable and not op.mat.flags.writeable
    m[0, 0] = 2.0
    assert op.mat[0, 0] == 1.0
    # a read-only view of a writeable array is copied too
    view = m.view()
    view.setflags(write=False)
    op = Operator(2, 2, view)
    m[0, 0] = 3.0
    assert op.mat[0, 0] == 2.0 and not op.mat.flags.writeable
    # so is a read-only array that owns its data, whose owner can make it
    # writable again
    frozen = np.eye(4, dtype=complex)
    frozen.setflags(write=False)
    assert Operator(2, 2, frozen).mat is not frozen


def test_a_read_only_array_made_writable_again_never_reaches_an_operator():
    m = np.eye(4, dtype=complex) / 4
    m.setflags(write=False)
    op = Operator(2, 2, m)
    m.setflags(write=True)
    m[0, 0] = 7
    assert op.trace() == 1


def test_fresh_results_are_frozen_in_place_not_copied():
    # the library's own dense results are handed over without a copy
    fresh = np.eye(4, dtype=complex)
    op = Operator(2, 2, _Fresh(fresh))
    assert op.mat is fresh and not fresh.flags.writeable
    desc = iv.StateDescriptor(2, (0, 1), [0.25] * 4)
    rho = iv.synthesize(desc)
    for op in (rho, iv.mc_twirl(rho, (0, 1), 2, Rng(0)), formats.qopb_decode(formats.qopb_encode(rho))):
        assert op.mat.flags.owndata and not op.mat.flags.writeable
    # an array of another dtype or layout is copied as any other
    assert Operator(2, 2, _Fresh(np.eye(4))).mat.dtype == np.complex128


def test_operators_compare_by_value_and_hash():
    a = identity(2, 2)
    b = Operator(np.int64(2), 2, np.eye(4))
    assert a == b and hash(a) == hash(b)
    assert a != a * 0.5
    assert a != Operator(4, 1, np.eye(4)) and a != 1
    assert {a, b, a * 0.5} == {a, a * 0.5} and len({a, b, a * 0.5}) == 2
    assert {a: 1, a * 0.5: 2}[b] == 1


def test_scale_is_bounded_before_any_allocation():
    calls = [
        lambda: Operator(3, 2**20, np.eye(1)),
        lambda: identity(3, 2**20),
        lambda: projector_onto(2, np.ones(2**13)),  # a 1 GiB outer product
        lambda: tensor_product(identity(2, 6), identity(2, 7)),  # a 1 GiB kron
        lambda: basis_ket(2, [0] * 13),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="scale exceeded"):
            call()


# --- tensor product -------------------------------------------------------


def test_tensor_identity():
    prod = tensor_product(identity(2, 1), identity(2, 1))
    assert prod.n == 2
    np.testing.assert_array_equal(prod.mat, np.eye(4))


def test_tensor_trace_multiplicative():
    # dense oracle: Tr(flip) by summing the diagonal
    f = flip(2)
    assert np.sum(np.diagonal(f.mat)).real == 2.0
    prod = tensor_product(f, identity(2, 1))
    assert abs(prod.trace() - 4.0) < 1e-15

    q0q1 = tensor_product(member(2, 0, 0), member(2, 0, 1))
    assert abs(q0q1.trace() - 3.0) < 1e-15

    a = random_hermitian(2, 2, 1)
    b = random_hermitian(2, 1, 2)
    lhs = tensor_product(a, b).trace()
    assert abs(lhs - a.trace() * b.trace()) < 1e-12


def test_tensor_dimension_mismatch():
    with pytest.raises(ValueError):
        tensor_product(identity(2, 1), identity(3, 1))


# --- partial trace --------------------------------------------------------


def test_partial_trace_identity_factor():
    out = partial_trace(identity(2, 2), {1})
    np.testing.assert_allclose(out.mat, 2 * np.eye(2))


def test_partial_trace_max_entangled():
    # reduced state of a maximally entangled pair is maximally mixed
    out = partial_trace(invariant_projector(2, (1,), (1,)), {1})
    np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_flip():
    out = partial_trace(flip(2), {2})
    np.testing.assert_allclose(out.mat, np.eye(2), atol=1e-15)


def test_partial_trace_preserves_trace():
    for seed, subs in ((0, {1}), (1, {2, 3}), (2, {1, 3})):
        op = random_hermitian(2, 3, seed)
        reduced = partial_trace(op, subs)
        assert abs(reduced.trace() - op.trace()) < 1e-12


def _letters_partial_trace(a, subs):
    # the earlier einsum over a letters alphabet, kept as the reference
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[: a.n])
    col, out_row, out_col = [], [], []
    extra = a.n
    for s in range(1, a.n + 1):
        if s in subs:
            col.append(row[s - 1])
        else:
            col.append(letters[extra])
            out_row.append(row[s - 1])
            out_col.append(letters[extra])
            extra += 1
    subscripts = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    return np.einsum(subscripts, a.mat.reshape((a.d,) * (2 * a.n)))


def test_partial_trace_matches_letters_einsum():
    gen = np.random.default_rng(7)
    for d, n in ((2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)):
        side = d**n
        op = Operator(d, n, gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side)))
        for mask in range(1, 2**n - 1):
            subs = {s for s in range(1, n + 1) if mask >> (s - 1) & 1}
            keep = n - len(subs)
            expected = _letters_partial_trace(op, subs).reshape(d**keep, d**keep)
            np.testing.assert_array_equal(partial_trace(op, subs).mat, expected)


def test_partial_trace_errors():
    op = identity(2, 2)
    with pytest.raises(ValueError):
        partial_trace(op, {3})
    with pytest.raises(ValueError):
        partial_trace(op, set())
    with pytest.raises(ValueError):
        partial_trace(op, {1, 2})
    with pytest.raises(ValueError):
        partial_trace(op, [1, 1])


# --- partial transpose ----------------------------------------------------


def test_partial_transpose_flip():
    for d in (2, 3, 4):
        lhs = partial_transpose(flip(d), {2})
        rhs = d * invariant_projector(d, (1,), (1,))
        assert np.max(np.abs(lhs.mat - rhs.mat)) == 0.0


def test_partial_transpose_identity_invariant():
    op = identity(3, 2)
    for subs in ({1}, {2}, {1, 2}):
        np.testing.assert_array_equal(partial_transpose(op, subs).mat, op.mat)


def test_partial_transpose_involution_exact():
    rho = random_hermitian(2, 2, 3)
    back = partial_transpose(partial_transpose(rho, {2}), {2})
    np.testing.assert_array_equal(back.mat, rho.mat)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rho = random_hermitian(3, 2, 4)
    pt = partial_transpose(rho, {1})
    assert pt.trace() == rho.trace()
    np.testing.assert_array_equal(pt.mat, pt.mat.conj().T)


def test_partial_transpose_empty_set_is_identity():
    rho = random_hermitian(2, 2, 5)
    np.testing.assert_array_equal(partial_transpose(rho, set()).mat, rho.mat)


# --- eigenvalues ----------------------------------------------------------


def test_min_eigenvalue_projector():
    assert abs(min_eigenvalue(invariant_projector(2, (0,), (1,)))) < 1e-14


def test_min_eigenvalue_transposed_entangled():
    # dense eigendecomposition oracle: eigenvalues of the partial
    # transpose of the maximally entangled projector are +-1/d and 1/d
    pt = partial_transpose(invariant_projector(2, (1,), (1,)), {2})
    w = np.linalg.eigvalsh(pt.mat)
    assert abs(w[0] + 0.5) < 1e-14
    assert abs(min_eigenvalue(pt) + 0.5) < 1e-12


def test_min_eigenvalue_scalar_matrix():
    assert abs(min_eigenvalue(identity(2, 2) / 4) - 0.25) < 1e-15


def test_min_eigenvalue_rejects_non_hermitian():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        min_eigenvalue(Operator(2, 1, m))


@pytest.mark.parametrize("row, col, bad", [(0, 0, np.nan), (0, 0, np.inf), (0, 1, np.inf)])
def test_min_eigenvalue_rejects_non_finite_entries_without_a_warning(row, col, bad):
    # unchecked, eigvalsh answers a NaN diagonal entry with 0.0, a silent
    # PSD verdict, and an inf off-diagonal entry with a warning
    m = np.eye(4, dtype=complex) / 4
    m[row, col] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            min_eigenvalue(Operator(2, 2, m))


@pytest.mark.parametrize("row, col, bad", [(0, 0, np.nan), (0, 0, np.inf), (1, 2, -np.inf), (3, 0, complex(0, np.nan))])
def test_operator_rejects_non_finite_entries(row, col, bad):
    # a NaN entry would make an operator unequal to itself and its
    # Frobenius distance to any operator nan
    m = np.eye(4, dtype=complex) / 4
    m[row, col] = bad
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        Operator(2, 2, m)
    # nor can arithmetic on finite operators make one
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        Operator(2, 2, np.eye(4) * 1e300) * 1e300


def test_finite_operators_compare_equal_and_at_distance_zero():
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = np.finfo(float).max
    a = Operator(2, 2, m)
    assert a == Operator(2, 2, m) and a == a
    assert frobenius_distance(a, a) == 0.0


def test_min_eigenvalue_certificate_residual():
    rho = random_hermitian(2, 2, 6)
    lam = min_eigenvalue(rho)
    w, v = np.linalg.eigh(rho.mat)
    vec = v[:, 0]
    residual = np.linalg.norm(rho.mat @ vec - lam * vec)
    assert residual <= 1e-9 * np.linalg.norm(rho.mat)


# --- frobenius distance ---------------------------------------------------


def test_frobenius_distance():
    a = random_hermitian(2, 1, 7)
    assert frobenius_distance(a, a) == 0.0
    zero = Operator(2, 1, np.zeros((2, 2)))
    assert abs(frobenius_distance(identity(2, 1), zero) - np.sqrt(2)) < 1e-15
    # orthogonal projectors of ranks 3 and 1: distance sqrt(3 + 1) = 2
    d = frobenius_distance(member(2, 0, 0), member(2, 0, 1))
    assert abs(d - 2.0) < 1e-14
    with pytest.raises(ValueError):
        frobenius_distance(identity(2, 1), identity(2, 2))
    # equal shapes on different spaces differ, as for a - b
    with pytest.raises(ValueError, match=r"^operator spaces differ: d=4,n=1 vs d=2,n=2$"):
        frobenius_distance(Operator(4, 1, np.eye(4)), Operator(2, 2, np.eye(4)))
    with pytest.raises(TypeError, match=r"^expected Operator, got ndarray$"):
        frobenius_distance(identity(2, 1), np.eye(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: frobenius_distance(m, identity(2, 1)),
        lambda m: partial_trace(m, {1}),
        lambda m: partial_transpose(m, {1}),
        lambda m: min_eigenvalue(m),
        lambda m: tensor_product(m, identity(2, 1)),
        lambda m: iv.fidelities_of(m, (0,)),
        lambda m: iv.mc_twirl(m, (0,), 3, Rng(0)),
        lambda m: biseparable_fidelities(m, m),
    ],
    ids=[
        "frobenius_distance",
        "partial_trace",
        "partial_transpose",
        "min_eigenvalue",
        "tensor_product",
        "fidelities_of",
        "mc_twirl",
        "biseparable_fidelities",
    ],
)
def test_a_matrix_in_place_of_an_operator_is_a_type_error(call):
    # the rule of Operator._check_same_space, for the first argument too
    with pytest.raises(TypeError, match=r"^expected Operator, got ndarray$"):
        call(np.eye(4) / 4)


# --- haar sampling --------------------------------------------------------


def haar(d, rng):
    # one Haar unitary from the kernel that mc_twirl samples with
    return _haar_sample(rng.generator().standard_normal((2, d, d)))


def test_haar_unitarity():
    for d in (2, 3, 4):
        u = haar(d, Rng(0))
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-12


def test_haar_determinism_and_counter_independence():
    a = haar(3, Rng(12, 5))
    b = haar(3, Rng(12, 5))
    assert np.array_equal(a, b)
    c = haar(3, Rng(12, 6))
    assert not np.array_equal(a, c)
    assert np.array_equal(haar(3, Rng(12).at(5)), a)


def test_rng_seed_and_counter_are_philox_range_integers():
    rng = Rng(np.int64(3), np.uint8(4)).at(np.int32(2))
    assert (rng.seed, rng.counter) == (3, 6) and type(rng.counter) is int
    Rng(2**128 - 1, 2**128 - 1).generator()
    with pytest.raises(ValueError, match="counter must lie in"):
        Rng(0, 1).at(-2)


def test_haar_first_moment():
    # Schur orthogonality: averaging U |0><0| U^dag gives I/d
    proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    base = Rng(11)
    acc = np.zeros((2, 2), dtype=complex)
    for s in range(10_000):
        u = haar(2, base.at(s))
        acc += u @ proj @ u.conj().T
    acc /= 10_000
    assert np.max(np.abs(acc - np.eye(2) / 2)) <= 0.03


def test_haar_trace_second_moment():
    # int |Tr U|^2 dU = 1
    base = Rng(11)
    total = 0.0
    for s in range(10_000):
        tr = np.trace(haar(2, base.at(s)))
        total += (tr * tr.conjugate()).real
    assert abs(total / 10_000 - 1.0) <= 0.05
