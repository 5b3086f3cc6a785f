from functools import reduce

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import Rng, all_vectors
from invariant_states.simplex import extract_fidelities


def _member(d, s, a):
    # member a of the one-pair family s
    return iv.invariant_projector(d, (s,), (a,))


def _flip(d):
    # F is the difference of the two Werner-split members, exactly
    return _member(d, 0, 0) - _member(d, 0, 1)


def _loop_flip(d):
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def _loop_entangled(d):
    e = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            e[i * d + i, j * d + j] = 1.0 / d
    return e


def test_flip_swaps_basis_states():
    f = _flip(2)
    np.testing.assert_array_equal(f.mat @ iv.basis_ket(2, "01"), iv.basis_ket(2, "10"))
    f3 = _flip(3)
    np.testing.assert_array_equal(f3.mat @ iv.basis_ket(3, "12"), iv.basis_ket(3, "21"))


def test_flip_involution_and_trace():
    for d in (2, 3, 4):
        f = _flip(d)
        np.testing.assert_array_equal((f @ f).mat, np.eye(d * d))
        assert f.trace().real == d


def test_max_entangled_projector():
    for d in (2, 3, 4):
        p = _member(d, 1, 1)
        assert np.max(np.abs((p @ p - p).mat)) <= 1e-12
        assert abs(p.trace() - 1.0) < 1e-14
        pt_flip = iv.partial_transpose(_flip(d), {2})
        np.testing.assert_allclose((d * p).mat, pt_flip.mat, atol=1e-15)


def test_werner_projectors():
    # closed form d(d + (-1)^a)/2 at d=2 gives traces 3 and 1
    assert _member(2, 0, 0).trace().real == 3.0
    assert _member(2, 0, 1).trace().real == 1.0
    for d in (2, 3, 4):
        q0, q1 = _member(d, 0, 0), _member(d, 0, 1)
        assert np.max(np.abs((q0 @ q1).mat)) <= 1e-14
        np.testing.assert_allclose((q0 + q1).mat, np.eye(d * d), atol=1e-15)
        for a in (0, 1):
            closed = d * (d + (-1) ** a) / 2
            assert abs(_member(d, 0, a).trace().real - closed) < 1e-12


def test_antisymmetric_projector_spectrum():
    q1 = _member(3, 0, 1)
    w = np.linalg.eigvalsh(q1.mat)
    assert np.all((np.abs(w) < 1e-12) | (np.abs(w - 1) < 1e-12))
    assert round(np.sum(w)) == 3  # rank d(d-1)/2 at d=3


def test_isotropic_projectors():
    np.testing.assert_array_equal(_member(2, 1, 1).mat, _loop_entangled(2))
    assert _member(3, 1, 0).trace().real == 8.0  # d^2 - 1
    for d in (2, 3):
        p0, p1 = _member(d, 1, 0), _member(d, 1, 1)
        assert np.max(np.abs((p0 @ p1).mat)) <= 1e-14
        np.testing.assert_allclose((p0 + p1).mat, np.eye(d * d), atol=1e-15)


def test_invariant_projector_single_pair():
    """The one-pair members against F and E filled by explicit loops:
    (I + F)/2, (I - F)/2, I - E and E, bit for bit."""
    for d in range(2, 6):
        eye, f, e = np.eye(d * d), _loop_flip(d), _loop_entangled(d)
        np.testing.assert_array_equal(_member(d, 0, 0).mat, (eye + f) * 0.5)
        np.testing.assert_array_equal(_member(d, 0, 1).mat, (eye - f) * 0.5)
        np.testing.assert_array_equal(_member(d, 1, 0).mat, eye - e)
        np.testing.assert_array_equal(_member(d, 1, 1).mat, e)
        np.testing.assert_array_equal(_flip(d).mat, f)
    assert abs(iv.invariant_projector(2, (1,), (1,)).trace() - 1.0) < 1e-15


def test_invariant_projector_argument_checks():
    with pytest.raises(ValueError):
        iv.invariant_projector(2, (0, 0), (0,))
    with pytest.raises(ValueError):
        iv.invariant_projector(3, (0,) * 4, (0,) * 4)  # side 6561 over the cap


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_family_algebra(d, k):
    """Idempotent, mutually orthogonal, complete, for every family."""
    side = d ** (2 * k)
    for sigma in all_vectors(k):
        projs = [iv.invariant_projector(d, sigma, a) for a in all_vectors(k)]
        total = reduce(lambda x, y: x + y, projs)
        assert np.max(np.abs(total.mat - np.eye(side))) <= 1e-12
        for i, p in enumerate(projs):
            assert np.max(np.abs((p @ p - p).mat)) <= 1e-12
            assert iv.min_eigenvalue(p) >= -1e-10
            for j, q in enumerate(projs):
                if i != j:
                    # Tr(PQ) = |QP|_F^2 vanishes iff the product does
                    overlap = np.einsum("ij,ji->", p.mat, q.mat).real
                    assert abs(overlap) <= 1e-12


def test_family_algebra_three_pairs():
    d, k = 2, 3
    side = d ** (2 * k)
    for sigma in [(0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)]:
        projs = [iv.invariant_projector(d, sigma, a) for a in all_vectors(k)]
        total = reduce(lambda x, y: x + y, projs)
        assert np.max(np.abs(total.mat - np.eye(side))) <= 1e-12
        for i, p in enumerate(projs):
            assert np.max(np.abs((p @ p - p).mat)) <= 1e-12
            for q in projs[i + 1 :]:
                assert abs(np.einsum("ij,ji->", p.mat, q.mat).real) <= 1e-12


def _conjugation(d, sigma, rng):
    us = [iv.haar_unitary(d, rng.at(10 * i)).mat for i in range(len(sigma))]
    ws = [u if s == 0 else u.conj() for u, s in zip(us, sigma)]
    return reduce(np.kron, us + ws)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_projector_invariance(d, k):
    """Conjugation by U_1 .. U_K on the first members and U_i or conj(U_i)
    on the second members fixes every family projector."""
    base = Rng(202)
    for sigma in all_vectors(k):
        for alpha in all_vectors(k):
            p = iv.invariant_projector(d, sigma, alpha).mat
            for t in range(20):
                v = _conjugation(d, sigma, base.at(100_000 * t))
                assert np.linalg.norm(v @ p @ v.conj().T - p) <= 1e-10


def test_projector_invariance_three_pairs():
    base = Rng(203)
    for sigma in [(0, 1, 1), (1, 0, 0)]:
        p = iv.invariant_projector(2, sigma, (1, 0, 1)).mat
        for t in range(5):
            v = _conjugation(2, sigma, base.at(100_000 * t))
            assert np.linalg.norm(v @ p @ v.conj().T - p) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_trace_formula_matches_dense(d, k):
    for sigma in all_vectors(k):
        total = 0.0
        for alpha in all_vectors(k):
            dense = iv.invariant_projector(d, sigma, alpha).trace().real
            closed = iv.projector_trace(d, sigma, alpha)
            assert abs(dense - closed) <= 1e-9
            total += closed
        assert abs(total - d ** (2 * k)) <= 1e-9


def test_trace_formula_values():
    # evaluated by hand from the per-pair factors, confirmed densely above
    assert iv.projector_trace(2, (0, 0), (0, 0)) == 9.0
    assert iv.projector_trace(2, (0, 0), (1, 1)) == 1.0
    assert iv.projector_trace(3, (1, 1), (1, 0)) == 8.0
    assert iv.projector_trace(5, (1, 1), (1, 1)) == 1.0
    assert iv.projector_trace(3, (0, 1), (1, 0)) == 3 * 8.0


def _dense_family(d, sigma):
    return [iv.invariant_projector(d, sigma, a) for a in all_vectors(len(sigma))]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_extract_fidelities_matches_dense_oracle(d, k):
    """Moment route against Tr(rho P) on random non-invariant matrices,
    Hermitian and not."""
    gen = np.random.default_rng(100 * d + k)
    side = d ** (2 * k)
    for sigma in all_vectors(k):
        family = _dense_family(d, sigma)
        z = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
        for mat in (z, z + z.conj().T):
            rho = iv.Operator(d, 2 * k, mat)
            dense = [np.einsum("ij,ji->", rho.mat, p.mat).real for p in family]
            np.testing.assert_allclose(extract_fidelities(rho, sigma), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_synthesize_matches_dense_oracle(d, k):
    gen = np.random.default_rng(200 * d + k)
    for sigma in all_vectors(k):
        family = _dense_family(d, sigma)
        f = gen.dirichlet(np.ones(2**k))
        dense = sum(
            f[i] / iv.projector_trace(d, sigma, alpha) * family[i].mat
            for i, alpha in enumerate(all_vectors(k))
        )
        got = iv.synthesize(iv.StateDescriptor(d, sigma, f)).mat
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


def test_structured_route_never_builds_projectors(monkeypatch):
    from invariant_states import projectors, simplex

    def forbidden(*args, **kwargs):
        raise AssertionError("dense projector built")

    monkeypatch.setattr(projectors, "invariant_projector", forbidden)
    monkeypatch.setattr(simplex, "invariant_projector", forbidden, raising=False)
    sigma = (0, 1, 0)
    desc = iv.StateDescriptor(2, sigma, np.arange(1, 9) / 36)
    rho = iv.synthesize(desc)
    np.testing.assert_allclose(extract_fidelities(rho, sigma), desc.fidelities, atol=1e-14)
    np.testing.assert_allclose(iv.fidelities_of(rho, sigma).fidelities, desc.fidelities, atol=1e-14)


def test_synthesize_scale_cap():
    with pytest.raises(ValueError, match="scale exceeded"):
        iv.synthesize(iv.StateDescriptor(3, (0,) * 4, np.full(16, 1 / 16)))
