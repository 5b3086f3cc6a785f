import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import Rng, StateDescriptor, all_vectors, simplex
from invariant_states.bits import bits_str, xor
from invariant_states.operators import _haar_sample
from invariant_states.selfcheck import (
    _dense_fidelities,
    basis_ket,
    biseparable_fidelities,
    extremal_product_state,
    frobenius_distance,
    identity,
    invariant_projector,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    projector_onto,
    tensor_product,
)
from invariant_states.simplex import PPT_ATOL, maximally_mixed_pair


def random_descriptor(d, k, sigma, seed):
    gen = np.random.default_rng(seed)
    return StateDescriptor(d, sigma, gen.dirichlet(np.ones(2**k)))


def random_state(d, n, seed):
    gen = np.random.default_rng(seed)
    side = d**n
    m = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    rho = m @ m.conj().T
    return iv.Operator(d, n, rho / np.trace(rho))


def haar(d, rng):
    # one Haar unitary from the kernel that mc_twirl samples with
    return _haar_sample(rng.generator().standard_normal((2, d, d)))


def bob_slots(mu):
    k = len(mu)
    return [k + i for i in range(1, k + 1) if mu[i - 1] == 1]


# --- descriptors ----------------------------------------------------------


def test_descriptor_validation():
    StateDescriptor(2, (0,), [0.5, 0.5])
    StateDescriptor(2, (0,), [1.0 + 5e-13, -5e-13])  # tiny negatives tolerated
    with pytest.raises(ValueError):
        StateDescriptor(2, (0,), [0.6, 0.6])
    with pytest.raises(ValueError):
        StateDescriptor(2, (0,), [1.1, -0.1])
    with pytest.raises(ValueError):
        StateDescriptor(2, (0, 0), [0.5, 0.5])
    with pytest.raises(ValueError):
        StateDescriptor(1, (0,), [0.5, 0.5])
    # d must be an integer of at most 2**53; numpy integers count
    for d in (2.5, np.float64(2.0), "2", 2**53 + 1, 10**400):
        with pytest.raises(ValueError, match="local dimension"):
            StateDescriptor(d, (0,), [0.5, 0.5])
    d = StateDescriptor(np.int64(3), (0,), [0.5, 0.5]).d
    assert d == 3 and type(d) is int
    # finite entries whose sum overflows fail without a RuntimeWarning
    with pytest.raises(ValueError, match="sum to 1"):
        StateDescriptor(2, (0,), [1e308, 1e308])


PAIRS = StateDescriptor(2, (0, 1), np.full(4, 0.25))


@pytest.mark.parametrize(
    "call",
    [
        lambda: iv.as_bits([0.5, 1.7]),
        lambda: StateDescriptor(2, [0.5], [0.5, 0.5]),
        lambda: iv.check_ppt(StateDescriptor(2, [0], [0.5, 0.5]), [1.9]),
        lambda: invariant_projector(2, (0,), (2,)),
        lambda: invariant_projector(2.9, (0,), (1,)),
        lambda: iv.projectors.moment_expansion(3.7, (1,)),
        lambda: iv.pt_matrix((1,), (1,), 2.5),
        lambda: iv.pt_matrix((0,), (1,), 2.5),
        lambda: iv.projector_trace(2.5, (0,), (0,)),
        lambda: iv.extremal_fidelities((1,), [0.5], 1),
        lambda: iv.extremal_fidelities((1,), [0.5], 2.5),
        lambda: iv.extremal_fidelities((1,), [0.5], 0),
        lambda: iv.extremal_fidelities((1,), [float("nan")], 2),
        lambda: iv.Operator(np.float64(2.0), 2, np.eye(4)),
        lambda: identity(2.5),
        lambda: maximally_mixed_pair(0),
        lambda: iv.reduce_pair(PAIRS, 2.0),
        lambda: iv.reduce_mixed_pair(PAIRS, 1, 2.0),
        lambda: bits_str([0.5]),
        lambda: partial_trace(identity(2, 4) / 16, [1.5]),
        lambda: partial_transpose(identity(2, 2), [2.7]),
        lambda: iv.mc_twirl(identity(2, 2) / 4, (0,), 2.5, Rng(0)),
        lambda: Rng(0).at(2.5),
        lambda: Rng(1.5),
        lambda: Rng(-1),
        lambda: Rng(0, 2**128),
        lambda: iv.Operator(2, 2.0, np.eye(4)),
        lambda: basis_ket(2, [0.5]),
        lambda: StateDescriptor(2, (0,), [0.5 + 5j, 0.5 - 5j]),
        lambda: iv.extremal_fidelities((0,), [0.5 + 3j], 2),
        # strings, bytes and objects are rejected, not parsed or cast by numpy
        lambda: StateDescriptor(2, (0,), ["0.5", "0.5"]),
        lambda: StateDescriptor(2, (0,), np.array([b"0.5", b"0.5"])),
        lambda: iv.extremal_fidelities((0,), ["0.25"], 2),
        lambda: StateDescriptor(2, (0,), [Fraction(1, 2), Fraction(1, 2)]),
        lambda: projector_onto(0, np.ones(4)),
        lambda: projector_onto(1, np.ones(4)),
        lambda: projector_onto(True, np.ones(4)),
        lambda: iv.extremal_fidelities((0,) * 40, [0.5] * 40, 2),  # K beyond the scale cap
    ],
)
def test_fractional_or_out_of_range_arguments_fail_closed(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the test as well
        with pytest.raises(ValueError):
            call()


def test_descriptor_copies_the_callers_fidelities():
    f = np.array([0.5, 0.5])
    desc = StateDescriptor(2, (0,), f)
    assert f.flags.writeable and not desc.fidelities.flags.writeable
    f[0] = -3.0
    np.testing.assert_array_equal(desc.fidelities, [0.5, 0.5])
    assert iv.check_ppt(desc, (1,)) == iv.check_ppt(StateDescriptor(2, (0,), [0.5, 0.5]), (1,))


def test_a_read_only_array_made_writable_again_never_reaches_a_descriptor():
    f = np.array([0.25, 0.75])
    f.setflags(write=False)
    desc = StateDescriptor(2, (0,), f)
    f.setflags(write=True)
    f[0] = 7.0
    assert desc.fidelities.tolist() == [0.25, 0.75] and not desc.fidelities.flags.writeable


def test_descriptors_compare_by_value_and_hash():
    a = StateDescriptor(2, (0,), [0.5, 0.5])
    b = StateDescriptor(np.int64(2), [0], np.array([0.5, 0.5]))
    assert a == b and hash(a) == hash(b)
    assert a != StateDescriptor(2, (0,), [0.25, 0.75])
    assert a != StateDescriptor(3, (0,), [0.5, 0.5]) and a != StateDescriptor(2, (1,), [0.5, 0.5])
    assert a != (2, (0,), [0.5, 0.5])
    other = StateDescriptor(2, (0,), [0.25, 0.75])
    assert {a, b, other} == {a, other} and len({a, b, other}) == 2
    assert {a: 1, other: 2}[b] == 1


# --- fidelity extraction and synthesis -------------------------------------


def test_fidelities_of_family_members():
    for d in (2, 3):
        for sigma in all_vectors(2):
            for idx, beta in enumerate(all_vectors(2)):
                member = invariant_projector(d, sigma, beta) / iv.projector_trace(
                    d, sigma, beta
                )
                f = iv.fidelities_of(member, sigma).fidelities
                expected = np.zeros(4)
                expected[idx] = 1.0
                np.testing.assert_allclose(f, expected, atol=1e-12)


def test_fidelities_of_maximally_mixed():
    for d, k in ((2, 2), (3, 2)):
        rho = identity(d, 2 * k) / d ** (2 * k)
        for sigma in all_vectors(k):
            f = iv.fidelities_of(rho, sigma).fidelities
            expected = [
                iv.projector_trace(d, sigma, a) / d ** (2 * k) for a in all_vectors(k)
            ]
            np.testing.assert_allclose(f, expected, atol=1e-12)


def test_fidelities_of_max_entangled_pair():
    # the maximally entangled vector is symmetric under exchange, so it
    # sits entirely in the symmetric sector of the Werner split
    f = iv.fidelities_of(invariant_projector(2, (1,), (1,)), (0,)).fidelities
    np.testing.assert_allclose(f, [1.0, 0.0], atol=1e-14)


def test_fidelities_of_validation():
    with pytest.raises(ValueError):
        iv.fidelities_of(identity(2, 2), (0,))  # trace 4, not a state
    with pytest.raises(ValueError):
        iv.fidelities_of(identity(2, 2) / 4, (0, 0))  # wrong pair count
    skew = np.eye(4, dtype=complex) / 4
    skew[1, 2] = 5j  # inside the support of the swap F, outside that of E
    with pytest.raises(ValueError, match="not Hermitian"):
        iv.fidelities_of(iv.Operator(2, 2, skew.copy()), (0,))
    np.testing.assert_allclose(iv.fidelities_of(iv.Operator(2, 2, skew.copy()), (1,)).fidelities, [0.75, 0.25])
    skew[2, 1] = -5j  # Hermitian again: the moments are real
    np.testing.assert_allclose(iv.fidelities_of(iv.Operator(2, 2, skew.copy()), (0,)).fidelities, [0.75, 0.25])


def test_synthesize_vertex():
    desc = StateDescriptor(2, (0,), [1.0, 0.0])
    expected = invariant_projector(2, (0,), (0,)) / 3.0
    assert frobenius_distance(iv.synthesize(desc), expected) <= 1e-14


def test_synthesize_isotropic_corner_is_entangled_product():
    # fidelity vector (0,0,0,1) is the product of the two maximally
    # entangled pair projectors, embedded on pairs (1,3) and (2,4)
    desc = StateDescriptor(2, (1, 1), [0.0, 0.0, 0.0, 1.0])
    direct = invariant_projector(2, (1, 1), (1, 1))
    assert frobenius_distance(iv.synthesize(desc), direct) <= 1e-14


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_fidelity_round_trip(d, k):
    for s_idx, sigma in enumerate(all_vectors(k)):
        desc = random_descriptor(d, k, sigma, seed=100 * d + 10 * k + s_idx)
        back = iv.fidelities_of(iv.synthesize(desc), sigma)
        np.testing.assert_allclose(back.fidelities, desc.fidelities, atol=1e-12)


def test_synthesized_states_are_states_and_invariant():
    base = Rng(55)
    for d, k, sigma in ((2, 1, (0,)), (2, 2, (0, 1)), (3, 1, (1,)), (3, 2, (1, 1))):
        desc = random_descriptor(d, k, sigma, seed=d * 7 + k)
        rho = iv.synthesize(desc)
        assert abs(rho.trace() - 1.0) <= 1e-12
        assert min_eigenvalue(rho) >= -1e-10
        for t in range(10):
            us = [haar(d, base.at(1000 * t + i)) for i in range(k)]
            ws = [u if s == 0 else u.conj() for u, s in zip(us, sigma)]
            v = reduce(np.kron, us + ws)
            assert np.linalg.norm(v @ rho.mat @ v.conj().T - rho.mat) <= 1e-10


# --- twirls ----------------------------------------------------------------


def test_exact_twirl_fixes_invariant_states():
    desc = random_descriptor(3, 2, (0, 1), seed=9)
    again = iv.fidelities_of(iv.synthesize(desc), (0, 1))
    np.testing.assert_allclose(again.fidelities, desc.fidelities, atol=1e-12)


def test_exact_twirl_product_basis_state():
    rho = projector_onto(2, basis_ket(2, "01"))
    q = iv.fidelities_of(rho, (0,)).fidelities
    np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-14)


def test_exact_twirl_idempotent():
    for seed in range(3):
        rho = random_state(2, 4, seed)
        once = iv.fidelities_of(rho, (0, 1))
        twice = iv.fidelities_of(iv.synthesize(once), (0, 1))
        np.testing.assert_allclose(twice.fidelities, once.fidelities, atol=1e-12)


def test_exact_twirl_matches_extremal_formula():
    rho = extremal_product_state(3, (1, 0), [0.3, 0.8])
    fast = iv.extremal_fidelities((1, 0), [0.3, 0.8], 3)
    np.testing.assert_allclose(iv.fidelities_of(rho, (1, 0)).fidelities, fast, atol=1e-12)


def test_mc_twirl_fixes_invariant_state():
    q0 = invariant_projector(2, (0,), (0,)) / 3.0
    est = iv.mc_twirl(q0, (0,), 10, Rng(3))
    assert frobenius_distance(est, q0) <= 1e-10


def test_mc_twirl_preserves_trace():
    rho = random_state(2, 2, 4)
    est = iv.mc_twirl(rho, (1,), 25, Rng(8))
    assert abs(est.trace() - 1.0) <= 1e-12


def test_mc_twirl_deterministic():
    rho = projector_onto(2, basis_ket(2, "01"))
    a = iv.mc_twirl(rho, (0,), 40, Rng(5))
    b = iv.mc_twirl(rho, (0,), 40, Rng(5))
    assert np.array_equal(a.mat, b.mat)


def test_mc_twirl_converges():
    rho = projector_onto(2, basis_ket(2, "01"))
    target = iv.synthesize(iv.fidelities_of(rho, (0,)))
    dist = frobenius_distance(iv.mc_twirl(rho, (0,), 5000, Rng(0)), target)
    assert dist <= 0.05


def test_mc_twirl_validation():
    rho = projector_onto(2, basis_ket(2, "01"))
    with pytest.raises(ValueError):
        iv.mc_twirl(rho, (0,), 0, Rng(0))


# --- transfer matrices ------------------------------------------------------


def test_single_pair_matrices_d2():
    x = iv.pt_matrix((1,), (0,), 2)
    np.testing.assert_allclose(x, [[0.5, 0.5], [1.5, -0.5]], atol=1e-15)
    y = iv.pt_matrix((1,), (1,), 2)
    np.testing.assert_allclose(y, x, atol=1e-15)  # coincide at d=2
    np.testing.assert_allclose(x @ x, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_single_pair_matrices_inverse_and_rows(d):
    x = iv.pt_matrix((1,), (0,), d)
    y = iv.pt_matrix((1,), (1,), d)
    np.testing.assert_allclose(x @ y, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(y @ x, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(x.sum(axis=1), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(y.sum(axis=1), [1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_pair_dense_transfer_identities(d):
    """Transposing a normalized family projector expands in the other
    family with the transfer-matrix rows as coefficients."""
    x = iv.pt_matrix((1,), (0,), d)
    y = iv.pt_matrix((1,), (1,), d)
    q = [invariant_projector(d, (0,), (b,)) / iv.projector_trace(d, (0,), (b,)) for b in (0, 1)]
    p = [invariant_projector(d, (1,), (b,)) / iv.projector_trace(d, (1,), (b,)) for b in (0, 1)]
    for a in (0, 1):
        lhs = partial_transpose(q[a], {2})
        rhs = x[a, 0] * p[0] + x[a, 1] * p[1]
        assert frobenius_distance(lhs, rhs) <= 1e-12
        lhs = partial_transpose(p[a], {2})
        rhs = y[a, 0] * q[0] + y[a, 1] * q[1]
        assert frobenius_distance(lhs, rhs) <= 1e-12


def test_pt_matrix_identity_pattern():
    for nu in all_vectors(2):
        z = iv.pt_matrix((0, 0), nu, 3)
        np.testing.assert_array_equal(z, np.eye(4))
        assert z.dtype == np.float64 and not z.flags.writeable


@pytest.mark.parametrize("k", [13, 40])
def test_pt_matrix_applies_the_k_cap_before_any_allocation(k, monkeypatch):
    # K = 40 would ask reduce(np.kron, ...) for 2^80 entries
    def refuse(*args):
        raise AssertionError("Kronecker product formed")

    monkeypatch.setattr(simplex, "reduce", refuse)
    with pytest.raises(ValueError, match=f"^scale exceeded: matrix side d\\*\\*n for d=2, n={k} "):
        iv.pt_matrix((1,) * k, (0,) * k, 2)


def test_pt_matrix_kron_structure():
    z = iv.pt_matrix((1, 1), (0, 0), 2)
    x = iv.pt_matrix((1,), (0,), 2)
    np.testing.assert_allclose(z, np.kron(x, x), atol=1e-15)
    z = iv.pt_matrix((1, 1), (0, 1), 3)
    np.testing.assert_allclose(
        z, np.kron(iv.pt_matrix((1,), (0,), 3), iv.pt_matrix((1,), (1,), 3)), atol=1e-15
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_pt_matrix_composition_law(d, k):
    """Two consecutive transpositions compose through their xor."""
    for nu in all_vectors(k):
        for mu in all_vectors(k):
            for mu2 in all_vectors(k):
                first = iv.pt_matrix(mu, nu, d)
                second = iv.pt_matrix(mu2, xor(mu, nu), d)
                combined = iv.pt_matrix(xor(mu, mu2), nu, d)
                np.testing.assert_allclose(first @ second, combined, atol=1e-12)


def test_pt_matrix_rows_sum_to_one():
    for d in (2, 3):
        for nu in all_vectors(2):
            for mu in all_vectors(2):
                rows = iv.pt_matrix(mu, nu, d).sum(axis=1)
                np.testing.assert_allclose(rows, np.ones(4), atol=1e-12)
    # large d and K: the Kronecker product's row sums drift from 1 by more
    # than 1e-12 through rounding alone
    for d, k in ((9, 6), (11, 7)):
        rows = iv.pt_matrix((1,) * k, (1, 0) + (1,) * (k - 2), d).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, rtol=0, atol=1e-10)


# --- fidelity transforms ----------------------------------------------------


def test_transform_identity():
    desc = random_descriptor(2, 2, (0, 1), seed=3)
    out = iv.transform_fidelities(desc, (0, 0))
    np.testing.assert_allclose(out, desc.fidelities, atol=1e-15)


def test_transform_single_pair_closed_form():
    for d in (2, 3):
        for q1 in (0.0, 0.3, 0.5, 0.7):
            desc = StateDescriptor(d, (0,), [1 - q1, q1])
            out = iv.transform_fidelities(desc, (1,))
            assert abs(out[1] - (1 - 2 * q1) / d) <= 1e-14
            assert abs(out.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_transform_matches_dense_transpose(d, k):
    for s_idx, sigma in enumerate(all_vectors(k)):
        for rep in range(5):
            desc = random_descriptor(d, k, sigma, seed=1000 + 17 * s_idx + rep)
            rho = iv.synthesize(desc)
            for mu in all_vectors(k):
                fast = iv.transform_fidelities(desc, mu)
                dense = _dense_fidelities(
                    partial_transpose(rho, bob_slots(mu)), xor(mu, sigma), {}
                )
                np.testing.assert_allclose(fast, dense, atol=1e-10)
                assert abs(fast.sum() - 1.0) <= 1e-12


def test_transform_involution():
    desc = random_descriptor(3, 2, (0, 1), seed=12)
    for mu in all_vectors(2):
        z1 = iv.pt_matrix(mu, desc.sigma, desc.d)
        z2 = iv.pt_matrix(mu, xor(mu, desc.sigma), desc.d)
        twice = desc.fidelities @ z1 @ z2
        np.testing.assert_allclose(twice, desc.fidelities, atol=1e-12)


# --- criteria ---------------------------------------------------------------


def test_check_ppt_examples():
    desc = StateDescriptor(2, (0, 0), [0.4, 0.3, 0.3, 0.0])
    verdict = iv.check_ppt(desc, (1, 1))
    assert not verdict.satisfied
    assert [f.constraint for f in verdict.failures] == ["mu=11,alpha=11"]
    # the failing combination is (q00 + q11) - (q01 + q10) = -0.2, scaled by 1/d^2
    assert abs(verdict.failures[0].value + 0.05) <= 1e-12

    good = StateDescriptor(2, (0, 0), [0.75, 0.0, 0.0, 0.25])
    assert iv.check_ppt(good, (1, 1)).satisfied


def test_check_ppt_trivial_pattern():
    desc = random_descriptor(2, 2, (1, 0), seed=5)
    assert iv.check_ppt(desc, (0, 0)).satisfied  # valid simplex points are nonnegative


def test_check_ppt_all_single_pair_threshold():
    for q1 in np.linspace(0.0, 1.0, 21):
        desc = StateDescriptor(2, (0,), [1 - q1, q1])
        assert iv.check_ppt_all(desc).satisfied == (q1 <= 0.5 + 1e-12)


def test_check_polytope_examples():
    assert iv.check_polytope(StateDescriptor(2, (0,), [0.6, 0.4])).satisfied
    disagreement = StateDescriptor(2, (0, 0), [0.4, 0.3, 0.3, 0.0])
    poly = iv.check_polytope(disagreement)
    assert poly.satisfied and poly.necessary_only

    vertex = StateDescriptor(2, (1, 1), [0.0, 0.0, 0.0, 1.0])
    verdict = iv.check_polytope(vertex)
    assert not verdict.satisfied
    bound_failures = [f for f in verdict.failures if f.constraint == "bound,alpha=11"]
    assert len(bound_failures) == 1
    assert abs(bound_failures[0].value - 1.0) <= 1e-15
    assert abs(bound_failures[0].bound - 0.25) <= 1e-15  # 1/d^2 at d=2


def test_documented_criteria_disagreement():
    # this point satisfies every polytope inequality yet is not PPT under
    # the all-pairs transposition: the two checks are independent
    desc = StateDescriptor(2, (0, 0), [0.4, 0.3, 0.3, 0.0])
    assert iv.check_polytope(desc).satisfied
    assert not iv.check_ppt(desc, (1, 1)).satisfied


def test_check_ppt_all_reports_biseparability():
    desc = StateDescriptor(2, (0, 0), [0.75, 0.0, 0.0, 0.25])
    verdict = iv.check_ppt_all(desc)
    assert verdict.biseparable is not None
    assert verdict.biseparable.satisfied
    assert not verdict.satisfied
    failing = {f.constraint for f in verdict.failures}
    assert failing == {"mu=01,alpha=11", "mu=10,alpha=11"}

    assert verdict.biseparable.criterion == "bisep"
    assert verdict.biseparable.failures == iv.check_ppt(desc, (1, 1)).failures == ()

    # a violated all-ones pattern: the embedded sub-verdict is the bisep one
    entangled = StateDescriptor(2, (0, 0), [0.4, 0.3, 0.3, 0.0])
    embedded = iv.check_ppt_all(entangled).biseparable
    assert not embedded.satisfied
    assert embedded.criterion == "bisep"
    assert embedded.failures == iv.check_ppt(entangled, (1, 1)).failures


def _separable_coordinates(desc):
    """Barycentric coordinates p = f @ (x)_i B_i^-1 among the twirled fully
    product vertices, extremal_fidelities at overlaps in {0,1}^K."""
    inverses = {0: np.array([[1.0, 0.0], [-1.0, 2.0]]), 1: np.array([[1.0, 0.0], [1.0 - desc.d, desc.d]])}
    return desc.fidelities @ reduce(np.kron, [inverses[s] for s in desc.sigma])


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("k", range(1, 8))
def test_separable_coordinates_are_the_all_ones_entries_of_the_patterns(k, d):
    """p[alpha] = c_alpha t_not(alpha)[1...1], where t_mu is
    transform_fidelities(desc, mu) and c_alpha = prod_i (d if alpha_i =
    sigma_i else 2): each column of B_i^-1 is that multiple of a column of
    the identity or of the transposition block.
    Passing every pattern therefore makes p >= 0, so check_ppt_all
    decides full separability, as p >= 0 does."""
    gen = np.random.default_rng(100 * k + d)
    sigma = tuple(int(b) for b in gen.integers(0, 2, k))
    vertices = np.array([iv.extremal_fidelities(sigma, a, d) for a in all_vectors(k)])
    points = [
        gen.dirichlet(np.ones(2**k)),
        gen.dirichlet(np.full(2**k, 0.2)),
        iv.extremal_fidelities(sigma, gen.uniform(0, 1, k), d),
        gen.dirichlet(np.ones(2**k)) @ vertices,
        0.5 * gen.dirichlet(np.ones(2**k)) @ vertices + 0.5 * gen.dirichlet(np.ones(2**k)),
        np.eye(2**k)[-1],
    ]
    scale = np.array([np.prod([d if a == s else 2 for a, s in zip(alpha, sigma)]) for alpha in all_vectors(k)])
    outcomes = set()
    for f in points:
        desc = StateDescriptor(d, sigma, f / f.sum())
        p = _separable_coordinates(desc) / scale
        last = [iv.transform_fidelities(desc, tuple(1 - a for a in alpha))[-1] for alpha in all_vectors(k)]
        # 1e-15 absolute up to magnitude 1; the all-ones member's entries
        # reach ((d-1)/2)^K in magnitude, and its bound scales with them
        np.testing.assert_allclose(p, last, rtol=0, atol=1e-15 * max(1.0, np.abs(last).max()))
        satisfied = iv.check_ppt_all(desc).satisfied
        assert bool(np.all(p >= -PPT_ATOL)) == satisfied
        outcomes.add(satisfied)
    # the vertex mixtures are separable, the all-ones family member is not
    assert outcomes == {True, False}


def test_maximally_mixed_passes_everything():
    for d in (2, 3):
        for k in (1, 2):
            rho = identity(d, 2 * k) / d ** (2 * k)
            for sigma in all_vectors(k):
                desc = iv.fidelities_of(rho, sigma)
                assert iv.check_ppt_all(desc).satisfied
                assert iv.check_polytope(desc).satisfied


# --- extremal product states ------------------------------------------------


def test_extremal_fidelities_vertices():
    np.testing.assert_allclose(
        iv.extremal_fidelities((0, 0), [1.0, 1.0], 2), [1, 0, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        iv.extremal_fidelities((1, 1), [1.0, 1.0], 2), [0.25, 0.25, 0.25, 0.25], atol=1e-15
    )


def test_extremal_fidelities_normalized():
    gen = np.random.default_rng(0)
    for d in (2, 3):
        for k in (1, 2):
            for sigma in all_vectors(k):
                a = gen.uniform(0, 1, k)
                f = iv.extremal_fidelities(sigma, a, d)
                assert f.min() >= -1e-15
                assert abs(f.sum() - 1.0) <= 1e-12


def test_extremal_fidelities_against_haar_products():
    """Overlap formula against brute force with complex product vectors."""
    base = Rng(77)
    for d in (2, 3):
        for s_idx, sigma in enumerate(all_vectors(2)):
            for rep in range(10):
                off = 10_000 * s_idx + 100 * rep
                psis = [haar(d, base.at(off + i))[:, 0] for i in range(2)]
                phis = [haar(d, base.at(off + 50 + i))[:, 0] for i in range(2)]
                overlaps = [abs(np.vdot(p, q)) ** 2 for p, q in zip(psis, phis)]
                factors = [projector_onto(d, v) for v in psis + phis]
                rho = reduce(tensor_product, factors)
                rho_s = partial_transpose(rho, bob_slots(sigma))
                dense = _dense_fidelities(rho_s, sigma, {})
                fast = iv.extremal_fidelities(sigma, overlaps, d)
                np.testing.assert_allclose(fast, dense, atol=1e-10)


def test_extremal_points_satisfy_both_criteria():
    """Necessity: projections of separable product states never violate
    either criterion (500 draws per dimension, pair count and family)."""
    gen = np.random.default_rng(424)
    for d in (2, 3):
        for k in (1, 2):
            for sigma in all_vectors(k):
                for _ in range(500):
                    f = iv.extremal_fidelities(sigma, gen.uniform(0, 1, k), d)
                    desc = StateDescriptor(d, sigma, f)
                    assert iv.check_polytope(desc).satisfied
                    assert iv.check_ppt_all(desc).satisfied


@pytest.mark.xfail(strict=True, reason="polytope's order rule compares labels that are not nested at K >= 3")
def test_polytope_holds_on_a_separable_point_at_k3():
    """The extremal point of overlaps (0, 0, 1) at d=2, sigma 000, is the
    projection of a product state, and every PPT test holds on it; the
    polytope test fails order,alpha=110,beta=001, whose labels are not
    nested (README, "Known limitations")."""
    f = iv.extremal_fidelities((0, 0, 0), (0, 0, 1), 2)
    assert f.tolist() == [0.25, 0.0] * 4
    desc = StateDescriptor(2, (0, 0, 0), f)
    assert iv.check_ppt_all(desc).satisfied
    assert iv.check_polytope(desc).failures == ()


def test_extremal_product_state_matches_formula():
    for d in (2, 3):
        for sigma in all_vectors(2):
            a = [0.25, 0.9]
            rho = extremal_product_state(d, sigma, a)
            assert abs(rho.trace() - 1.0) <= 1e-12
            dense = _dense_fidelities(rho, sigma, {})
            np.testing.assert_allclose(
                dense, iv.extremal_fidelities(sigma, a, d), atol=1e-10
            )


def test_extremal_overlap_validation():
    with pytest.raises(ValueError):
        iv.extremal_fidelities((0,), [1.5], 2)
    with pytest.raises(ValueError):
        iv.extremal_fidelities((0, 0), [0.5], 2)


# --- biseparable construction ------------------------------------------------


def test_biseparable_fidelities_entangled_pair():
    for d in (2, 3):
        ent = invariant_projector(d, (1,), (1,))
        q = biseparable_fidelities(ent, ent)
        expected = [(1 + 1 / d) / 2, 0.0, 0.0, (1 - 1 / d) / 2]
        np.testing.assert_allclose(q, expected, atol=1e-14)


def test_biseparable_fidelities_basis_product():
    p00 = projector_onto(2, basis_ket(2, "00"))
    np.testing.assert_allclose(
        biseparable_fidelities(p00, p00), [1, 0, 0, 0], atol=1e-14
    )


def test_biseparable_fidelities_match_dense_twirl():
    base = Rng(91)
    for d in (2, 3):
        for rep in range(10):
            va = haar(d * d, base.at(100 * rep))[:, 0]
            vb = haar(d * d, base.at(100 * rep + 1))[:, 0]
            pa = iv.Operator(d, 2, np.outer(va, va.conj()))
            pb = iv.Operator(d, 2, np.outer(vb, vb.conj()))
            q = biseparable_fidelities(pa, pb)
            dense = iv.fidelities_of(tensor_product(pa, pb), (0, 0)).fidelities
            np.testing.assert_allclose(q, dense, atol=1e-10)
            # hull inequalities for states separable across the cut
            assert q[1] <= q[0] + 1e-12 and q[2] <= q[0] + 1e-12 and q[3] <= q[0] + 1e-12
            assert q[1] + q[2] <= 0.5 + 1e-12
            assert iv.check_ppt(StateDescriptor(d, (0, 0), q), (1, 1)).satisfied


def test_biseparable_fidelities_rank2_projector():
    # the closed form holds for projectors of any rank
    d = 2
    sym = invariant_projector(d, (0,), (0,))
    vb = haar(d * d, Rng(17))[:, 0]
    pb = iv.Operator(d, 2, np.outer(vb, vb.conj()))
    q = biseparable_fidelities(sym, pb)
    dense = _dense_fidelities(tensor_product(sym, pb), (0, 0), {})
    np.testing.assert_allclose(q, dense, atol=1e-12)


def test_biseparable_fidelities_rejects_non_projector():
    bad = identity(2, 2) * 0.5
    with pytest.raises(ValueError):
        biseparable_fidelities(bad, invariant_projector(2, (1,), (1,)))


# --- reductions ---------------------------------------------------------------


def test_reduce_pair_worked_example():
    desc = StateDescriptor(2, (0, 1), [0.1, 0.2, 0.3, 0.4])
    reduced = iv.reduce_pair(desc, 1)
    assert reduced.sigma == (1,)
    np.testing.assert_allclose(reduced.fidelities, [0.4, 0.6], atol=1e-15)
    other = iv.reduce_pair(desc, 2)
    assert other.sigma == (0,)
    np.testing.assert_allclose(other.fidelities, [0.3, 0.7], atol=1e-15)


def test_reduce_pair_uniform():
    desc = StateDescriptor(2, (0, 0), np.full(4, 0.25))
    np.testing.assert_allclose(iv.reduce_pair(desc, 1).fidelities, [0.5, 0.5])


@pytest.mark.parametrize("sigma", list(all_vectors(2)))
def test_reduce_pair_matches_dense(sigma):
    d, k = 2, 2
    for rep in range(5):
        desc = random_descriptor(d, k, sigma, seed=300 + rep)
        rho = iv.synthesize(desc)
        for i in (1, 2):
            reduced = iv.reduce_pair(desc, i)
            dense = _dense_fidelities(
                partial_trace(rho, {i, k + i}), reduced.sigma, {}
            )
            np.testing.assert_allclose(reduced.fidelities, dense, atol=1e-10)
            assert abs(reduced.fidelities.sum() - 1.0) <= 1e-12


def test_reduce_pair_errors():
    desc = StateDescriptor(2, (0,), [0.5, 0.5])
    with pytest.raises(ValueError):
        iv.reduce_pair(desc, 1)  # single pair cannot be reduced further
    desc2 = StateDescriptor(2, (0, 0), np.full(4, 0.25))
    with pytest.raises(ValueError):
        iv.reduce_pair(desc2, 3)


def test_reduce_mixed_pair_two_pairs_maximally_mixed():
    desc = StateDescriptor(2, (0, 1), [0.1, 0.2, 0.3, 0.4])
    reduced = iv.reduce_mixed_pair(desc, 1, 2)
    out = iv.synthesize(reduced)
    np.testing.assert_allclose(out.mat, np.eye(4) / 4, atol=1e-10)
    # dense: tracing any unmatched slot pair leaves the rest maximally mixed
    rho = iv.synthesize(desc)
    for slots in ({1, 4}, {2, 3}, {1, 2}, {3, 4}):
        traced = partial_trace(rho, slots)
        np.testing.assert_allclose(traced.mat, np.eye(4) / 4, atol=1e-10)


def test_reduce_mixed_pair_three_pairs():
    gen = np.random.default_rng(31)
    sigma = (0, 1, 1)
    desc = StateDescriptor(2, sigma, gen.dirichlet(np.ones(8)))
    reduced = iv.reduce_mixed_pair(desc, 1, 2)
    composed = iv.reduce_pair(iv.reduce_pair(desc, 2), 1)
    assert reduced.sigma == composed.sigma == (1,)
    np.testing.assert_allclose(reduced.fidelities, composed.fidelities, atol=1e-15)

    # dense route: trace first member of pair 1 (slot 1) and second member
    # of pair 2 (slot 5); the two orphans are maximally mixed and the
    # surviving pair carries the marginal fidelities
    rho = iv.synthesize(desc)
    remaining = partial_trace(rho, {1, 5})  # slots now (A2, A3, B1, B3)
    orphans = partial_trace(remaining, {2, 4})
    np.testing.assert_allclose(orphans.mat, np.eye(4) / 4, atol=1e-10)
    pair3 = partial_trace(remaining, {1, 3})
    dense = _dense_fidelities(pair3, (sigma[2],), {})
    np.testing.assert_allclose(reduced.fidelities, dense, atol=1e-10)


def test_reduce_mixed_pair_errors():
    desc = StateDescriptor(2, (0, 0), np.full(4, 0.25))
    with pytest.raises(ValueError):
        iv.reduce_mixed_pair(desc, 1, 1)
    with pytest.raises(ValueError):
        iv.reduce_mixed_pair(desc, 1, 3)


def test_maximally_mixed_pair_descriptor():
    for d in (2, 3):
        out = iv.synthesize(maximally_mixed_pair(d))
        np.testing.assert_allclose(out.mat, np.eye(d * d) / d**2, atol=1e-14)
