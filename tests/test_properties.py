"""Property tests of the transfer matrices over random (d, mu, nu).

Deterministic (derandomized, no example database), so a run writes no
files and every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import invariant_states as iv

PROPERTY = settings(database=None, derandomize=True, deadline=None)

dims = st.integers(min_value=2, max_value=1000)
patterns = st.integers(min_value=1, max_value=7).flatmap(
    lambda k: st.tuples(*[st.lists(st.integers(0, 1), min_size=k, max_size=k)] * 2)
)


@PROPERTY
@given(d=dims, mu_nu=patterns)
def test_pt_matrix_rows_sum_to_one_within_rounding(d, mu_nu):
    # the rounding error of a row sum scales with the row's absolute sum,
    # which grows like d^|mu| in the Kronecker product
    z = iv.pt_matrix(*mu_nu, d)
    deviation = np.abs(z.sum(axis=1) - 1.0)
    assert np.all(deviation <= 1e-12 * np.abs(z).sum(axis=1))


@PROPERTY
@given(d=dims, mu_nu=patterns)
def test_pt_matrix_is_an_involution(d, mu_nu):
    mu, nu = mu_nu
    first = iv.pt_matrix(mu, nu, d)
    second = iv.pt_matrix(mu, iv.xor(mu, nu), d)
    error = np.abs(first @ second - np.eye(len(first)))
    assert np.all(error <= 1e-12 * (np.abs(first) @ np.abs(second)))
