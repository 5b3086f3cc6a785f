"""Property tests: transfer matrices over random (d, mu, nu), twirl
idempotence, and fail-closed parsing and argument checks.

Deterministic (derandomized, no example database), so a run writes no
files and every run draws the same examples.
"""

import json
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invariant_states as iv
from invariant_states import formats
from invariant_states.bits import xor
from invariant_states.operators import dimension

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
    second = iv.pt_matrix(mu, xor(mu, nu), d)
    error = np.abs(first @ second - np.eye(len(first)))
    assert np.all(error <= 1e-12 * (np.abs(first) @ np.abs(second)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def descriptor_texts(draw):
    """A valid descriptor document, one of its keys dropped or replaced by
    arbitrary JSON, or arbitrary text."""
    sigma = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    doc = {"version": 1, "d": draw(st.integers(2, 5)), "K": len(sigma), "sigma": sigma,
           "fidelities": [1.0 / 2 ** len(sigma)] * 2 ** len(sigma)}
    kind = draw(st.sampled_from(["valid", "drop", "replace", "replace", "text"]))
    key = draw(st.sampled_from(sorted(doc)))
    if kind == "drop":
        del doc[key]
    elif kind == "replace":
        doc[key] = draw(json_values)
    elif kind == "text":
        return draw(st.text(max_size=40))
    return json.dumps(doc)


@PROPERTY
@given(text=descriptor_texts())
def test_parse_descriptor_fails_closed(text):
    try:
        desc = formats.parse_descriptor(text)
    except ValueError:
        return
    canonical = formats.dumps_descriptor(desc)
    assert formats.dumps_descriptor(formats.parse_descriptor(canonical)) == canonical


@st.composite
def qopb_blobs(draw):
    """A valid QOPB blob with arbitrary payload bytes, one header byte or
    the (d, n) header replaced, cut short, or arbitrary bytes."""
    d, n = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    size = 16 * d ** (2 * n)
    blob = bytearray(b"QOPB" + struct.pack("<BII", 1, d, n) + draw(st.binary(min_size=size, max_size=size)))
    kind = draw(st.sampled_from(["valid", "byte", "header", "cut", "raw"]))
    u32 = st.integers(0, 16) | st.integers(2**31, 2**32 - 1)
    if kind == "byte":
        blob[draw(st.integers(0, 12))] = draw(st.integers(0, 255))
    elif kind == "header":
        struct.pack_into("<II", blob, 5, draw(u32), draw(u32))
    elif kind == "cut":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif kind == "raw":
        blob = draw(st.binary(max_size=40))
    return bytes(blob)


@PROPERTY
@given(blob=qopb_blobs())
def test_qopb_decode_fails_closed(blob):
    try:
        op = formats.qopb_decode(blob)
    except ValueError:
        return
    assert formats.qopb_encode(op) == blob


@PROPERTY
@given(
    d=st.integers(2, 5),
    sigma=st.lists(st.integers(0, 1), min_size=1, max_size=2),
    weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_twirl_is_idempotent(d, sigma, weights):
    f = np.array(weights[: 2 ** len(sigma)]) + 1e-3
    desc = iv.StateDescriptor(d, sigma, f / f.sum())
    back = iv.fidelities_of(iv.synthesize(desc), sigma)
    assert back.d == desc.d and back.sigma == desc.sigma
    assert np.max(np.abs(back.fidelities - desc.fidelities)) <= 1e-12


not_a_bit = st.floats().filter(lambda x: x not in (0.0, 1.0)) | st.integers().filter(lambda x: x not in (0, 1))


@PROPERTY
@given(bits=st.lists(st.integers(0, 1), max_size=3), bad=not_a_bit, pos=st.integers(0, 3))
def test_as_bits_rejects_non_bits(bits, bad, pos):
    with pytest.raises(ValueError):
        iv.as_bits(bits[:pos] + [bad] + bits[pos:])


@PROPERTY
@given(
    d=st.floats()
    | st.integers(max_value=1)
    | st.integers(min_value=int(sys.float_info.max) + 1)
    | st.text(max_size=2)
    | st.just(np.float64(2.0))
)
def test_dimension_rejects_non_integral_or_out_of_range(d):
    with pytest.raises(ValueError):
        dimension(d)
