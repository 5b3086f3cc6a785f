"""Kronecker forms pinned bit for bit against per-label reference loops.

Every K-pair closed form is a Kronecker product over the one-pair table
:func:`invariant_states.projectors.pair_forms`.  The references below are
the earlier formulations: literal 2 x 2 blocks in integer ``d``, the
per-label trace product and the per-label extremal-point loop.  The
products multiply in the same order, so the results must be equal, not
merely close.
"""

from functools import reduce

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import all_vectors
from invariant_states.projectors import moment_expansion, pair_forms


def reference_pt_matrix(mu, nu, d):
    factors = []
    for m_bit, n_bit in zip(mu, nu):
        if m_bit == 0:
            factors.append(np.eye(2))
        elif n_bit == 0:
            factors.append(np.array([[d - 1.0, 1.0], [d + 1.0, -1.0]]) / d)
        else:
            factors.append(np.array([[1.0, 1.0], [1.0 + d, 1.0 - d]]) / 2)
    return reduce(np.kron, factors)


def reference_moment_coeffs(d, sigma):
    blocks = [
        np.array([[0.5, 0.5], [0.5, -0.5]]) if s == 0 else np.array([[1.0, -1.0 / d], [0.0, 1.0 / d]])
        for s in sigma
    ]
    return reduce(np.kron, blocks)


def reference_projector_trace(d, sigma, alpha):
    total = 1.0
    for s, a in zip(sigma, alpha):
        if s == 0:
            total *= d * (d + (-1) ** a) / 2
        elif a == 1:
            total *= 1.0
        else:
            total *= d * d - 1
    return total


def reference_extremal(sigma, a, d):
    k = len(sigma)
    prefactor = 0.5 ** (k - sum(sigma))
    out = np.empty(2**k)
    for idx, alpha in enumerate(all_vectors(k)):
        term = prefactor
        for s_bit, a_bit, a_i in zip(sigma, alpha, a):
            if s_bit == 0:
                term *= 1.0 + (-1.0) ** a_bit * a_i
            else:
                term *= 1.0 - (a_bit + (-1.0) ** a_bit * a_i / d)
        out[idx] = term
    return out


def _bits(gen, k):
    return tuple(int(b) for b in gen.integers(0, 2, k))


def _overlaps(gen, k):
    # random overlaps, with exact 0 and 1 mixed in
    a = gen.uniform(0, 1, k)
    a[gen.uniform(0, 1, k) < 0.25] = 0.0
    a[gen.uniform(0, 1, k) < 0.25] = 1.0
    return a


GRID = [(k, d) for k in range(1, 8) for d in (2, 3, 5, 9)]


@pytest.mark.parametrize("k, d", GRID)
def test_kronecker_forms_match_reference_loops(k, d):
    gen = np.random.default_rng(1000 * k + d)
    for _ in range(3):
        sigma, mu = _bits(gen, k), _bits(gen, k)
        assert np.array_equal(iv.pt_matrix(mu, sigma, d), reference_pt_matrix(mu, sigma, d))
        assert np.array_equal(iv.pt_matrix((1,) * k, sigma, d), reference_pt_matrix((1,) * k, sigma, d))
        traces = reduce(np.kron, [pair_forms(d, s)[1] for s in sigma])
        expected = [reference_projector_trace(d, sigma, alpha) for alpha in all_vectors(k)]
        assert np.array_equal(traces, expected)
        assert [iv.projector_trace(d, sigma, alpha) for alpha in all_vectors(k)] == expected
        for _ in range(4):
            a = _overlaps(gen, k)
            assert np.array_equal(iv.extremal_fidelities(sigma, a, d), reference_extremal(sigma, a, d))
    for a in (np.zeros(k), np.ones(k)):
        assert np.array_equal(iv.extremal_fidelities(sigma, a, d), reference_extremal(sigma, a, d))


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (9, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_moment_coeffs_and_synthesis_match_reference(d, k):
    gen = np.random.default_rng(10 * d + k)
    for sigma in all_vectors(k):
        coeffs, patterns = moment_expansion(d, sigma)
        assert np.array_equal(coeffs, reference_moment_coeffs(d, sigma))
        desc = iv.StateDescriptor(d, sigma, gen.dirichlet(np.ones(2**k)))
        traces = [reference_projector_trace(d, sigma, alpha) for alpha in all_vectors(k)]
        weights = (desc.fidelities / traces) @ coeffs
        flat = np.zeros(d ** (4 * k), dtype=np.complex128)
        for weight, pattern in zip(weights, patterns):
            flat[pattern] += weight
        assert np.array_equal(iv.synthesize(desc).mat.reshape(-1), flat)
