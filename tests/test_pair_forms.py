"""Kronecker forms pinned bit for bit against per-label reference loops.

Every K-pair closed form is a Kronecker product over the one-pair tables
of :mod:`invariant_states.projectors`.  The references are the
earlier formulations: the literal 2 x 2 transposition blocks of
``reference.py``, the per-label trace product, the per-label
extremal-point loop, and the moment-coefficient maps as the walk of
``reference.py`` in Python floats, which applies each pair's block along
its own axis.  The products multiply and add in the same order, so the
results must be equal, not merely close.
"""

from functools import reduce

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import all_vectors
from invariant_states.projectors import _moment_blocks, _traces, moment_expansion
from reference import reference_pt_matrix, walk


def reference_moment_blocks(d, sigma):
    return [[[0.5, 0.5], [0.5, -0.5]] if s == 0 else [[1.0, -1.0 / d], [0.0, 1.0 / d]] for s in sigma]


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
        traces = reduce(np.kron, [_traces(float(d))[s] for s in sigma])
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
        patterns, blocks = moment_expansion(d, sigma), _moment_blocks(float(d))
        expected = reference_moment_blocks(d, sigma)
        assert [blocks[s, :, :, 0].tolist() for s in sigma] == expected
        desc = iv.StateDescriptor(d, sigma, gen.dirichlet(np.ones(2**k)))
        traces = [reference_projector_trace(d, sigma, alpha) for alpha in all_vectors(k)]
        weights = walk([f / t for f, t in zip(desc.fidelities.tolist(), traces)], expected)
        flat = np.zeros(d ** (4 * k), dtype=np.complex128)
        for weight, pattern in zip(weights, patterns):
            flat[pattern] += weight
        rho = iv.synthesize(desc)
        assert np.array_equal(rho.mat.reshape(-1), flat)
        # the twirl walks the moments Tr(rho X_S) through the transposed blocks
        moments = rho.mat.reshape(-1)[patterns].sum(axis=1).real.tolist()
        transposed = [[[b[0][0], b[1][0]], [b[0][1], b[1][1]]] for b in expected]
        assert iv.fidelities_of(rho, sigma).fidelities.tolist() == walk(moments, transposed)
