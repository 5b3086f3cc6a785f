"""Property tests: transfer matrices over random (d, mu, nu), twirl
idempotence, fail-closed parsing, CLI commands and argument checks, and
the bytes of the JSON writers at the edges of the descriptor rule and of
.17g.

Deterministic (derandomized, no example database), so a run writes no
files but the CLI's input, under pytest's temporary directory, and every
run draws the same examples.
"""

import contextlib
import io
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invariant_states as iv
from invariant_states import formats
from invariant_states.bits import xor
from invariant_states.cli import main
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


# check and reduce options that argparse accepts, valid or not for the descriptor
criteria = st.sampled_from(["ppt-all", "polytope", "bisep", "ppt:1", "ppt:01", "ppt:x", "ppt:", "entropy"])
cli_options = st.builds(lambda c, strict: ["check", "--criterion", c] + ["--strict"] * strict, criteria, st.booleans())
cli_options |= st.sampled_from(
    [["reduce", "--pair", p] for p in ("0", "1", "2")] + [["reduce", "--mixed", m] for m in ("1,2", "1,1", "a,b")]
)


@PROPERTY
@given(text=descriptor_texts(), options=cli_options)
def test_cli_fails_closed(tmp_path_factory, text, options):
    """Every run ends in one of three ways, never an exception: a result
    (exit 0), one error line (exit 2), or under --strict a violated
    verdict (exit 1)."""
    path = tmp_path_factory.getbasetemp() / "cli_fuzz.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([options[0], "--in", str(path), *options[1:]])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code == 0 or (code == 1 and "--strict" in options and '"outcome":"violated"' in out)
        assert out != "" and err == ""


# entries at the edges of the descriptor rule and of float formatting:
# exact zeros, the smallest subnormal, other subnormals, the smallest
# normal, the most negative entry allowed, and exponents where .17g
# prints in e-notation
EDGE_ENTRIES = (0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308, -1e-12, 1e-5, 9.5e-5, 0.1)


@st.composite
def edge_descriptors(draw):
    """A valid descriptor at K = 1..12: a few entries drawn from
    EDGE_ENTRIES or from [0, 0.1], and one entry holding the rest of the
    mass."""
    k = draw(st.integers(1, 12))
    sigma = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    entries = st.sampled_from(EDGE_ENTRIES) | st.floats(0.0, 0.1)
    f = np.zeros(2**k)
    for i, x in draw(st.lists(st.tuples(st.integers(0, 2**k - 1), entries), max_size=8)):
        f[i] = x
    rest = draw(st.integers(0, 2**k - 1))
    f[rest] = 0.0
    f[rest] = 1.0 - f.sum()
    return iv.StateDescriptor(draw(st.sampled_from([2, 3, 2**53])), sigma, f)


@PROPERTY
@given(desc=edge_descriptors())
def test_dumps_descriptor_is_canonical_json_of_its_dict(desc):
    data = {"version": 1, "d": desc.d, "K": desc.K, "sigma": list(desc.sigma), "fidelities": desc.fidelities.tolist()}
    text = formats.dumps_descriptor(desc)
    assert text == formats.canonical_json(data) + "\n"
    back = formats.parse_descriptor(text)
    assert back == desc
    assert formats.dumps_descriptor(back) == text


huge = 10**4300  # 4,301 digits, past Python's default limit for int-to-str


@PROPERTY
@given(
    value=st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**53, -(2**63), 2**64, 10**4299, -(10**4299), huge, -huge, huge * 10**50])
)
def test_canonical_json_writes_scalars_as_json_dumps(value):
    try:
        expected = json.dumps(value)
    except ValueError as exc:  # the digit limit, where Python has one
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            formats.canonical_json(value)
    else:
        assert formats.canonical_json(value) == expected


near_notation_switch = st.sampled_from([1e16, 1e17]).flatmap(
    lambda x: st.floats(x / 1.01, x * 1.01) | st.sampled_from([np.nextafter(x, 0.0), x, np.nextafter(x, 2 * x)])
)


@PROPERTY
@given(x=near_notation_switch, sign=st.sampled_from([1.0, -1.0]))
def test_canonical_json_floats_either_side_of_the_notation_switch(x, sign):
    # .17g, which every float writer uses, prints up to 17 integer digits
    # before it turns to e-notation; repr turns at 16
    x = float(sign * x)
    text = formats.canonical_json(x)
    assert text == format(x, ".17g")
    assert ("e+" in text) == (abs(x) >= 99999999999999999.5)
    assert json.loads(text) == x


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
    | st.integers(min_value=2**53 + 1)
    | st.text(max_size=2)
    | st.just(np.float64(2.0))
)
def test_dimension_rejects_non_integral_or_out_of_range(d):
    with pytest.raises(ValueError):
        dimension(d)
