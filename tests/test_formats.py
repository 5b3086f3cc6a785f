import json
import struct

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import StateDescriptor, formats
from invariant_states.selfcheck import identity


def test_canonical_json_sorted_and_compact():
    out = formats.canonical_json({"b": 1, "a": [True, None, "x"]})
    assert out == '{"a":[true,null,"x"],"b":1}'


def test_canonical_json_float_formatting():
    assert formats.canonical_json(0.5) == "0.5"
    assert formats.canonical_json(1 / 3) == "0.33333333333333331"
    assert formats.canonical_json([1.0, 0.0]) == "[1,0]"
    with pytest.raises(ValueError):
        formats.canonical_json(float("nan"))


def test_canonical_json_round_trips_doubles():
    gen = np.random.default_rng(1)
    values = list(gen.standard_normal(50)) + [1e-300, 1e300, -0.1]
    text = formats.canonical_json(values)
    again = formats.canonical_json(json.loads(text))
    assert text == again


def test_descriptor_json_round_trip():
    desc = StateDescriptor(2, (0, 1), [0.1, 0.2, 0.3, 0.4])
    text = formats.dumps_descriptor(desc)
    data = json.loads(text)
    assert data["version"] == 1 and data["d"] == 2 and data["K"] == 2
    assert data["sigma"] == [0, 1]
    back = formats.parse_descriptor(text)
    assert back.d == desc.d and back.sigma == desc.sigma
    np.testing.assert_array_equal(back.fidelities, desc.fidelities)
    # canonical re-serialization is byte-identical
    assert formats.dumps_descriptor(back) == text


def test_descriptor_with_negative_zero_round_trips():
    # JSON -0 parses as the integer 0, so -0.0 is stored as 0.0
    desc = StateDescriptor(2, (0, 1), [-0.0, 0.5, -0.0, 0.5])
    assert not np.signbit(desc.fidelities).any()
    text = formats.dumps_descriptor(desc)
    assert '"fidelities":[0,0.5,0,0.5]' in text
    assert formats.dumps_descriptor(formats.parse_descriptor(text)) == text


def test_descriptor_json_rejects_bad_input():
    with pytest.raises(ValueError):
        formats.parse_descriptor("not json")
    with pytest.raises(ValueError):
        formats.parse_descriptor("[1,2]")
    with pytest.raises(ValueError):
        formats.parse_descriptor('{"version":1,"d":2}')
    good = formats.dumps_descriptor(StateDescriptor(2, (0,), [0.5, 0.5]))
    wrong_version = good.replace('"version":1', '"version":9')
    with pytest.raises(ValueError):
        formats.parse_descriptor(wrong_version)
    wrong_k = good.replace('"K":1', '"K":2')
    with pytest.raises(ValueError):
        formats.parse_descriptor(wrong_k)


def test_descriptor_beyond_the_scale_rule_is_rejected():
    # transfer and order matrices are 2^K-sided, so K is held to the matrix-side cap
    def vertex(k):
        data = {"version": 1, "d": 2, "K": k, "sigma": [0] * k, "fidelities": [1.0] + [0.0] * (2**k - 1)}
        return formats.canonical_json(data)

    assert formats.parse_descriptor(vertex(12)).K == 12
    with pytest.raises(ValueError, match="^scale exceeded"):
        formats.parse_descriptor(vertex(13))


def test_verdict_json_schema():
    desc = StateDescriptor(2, (0, 0), [0.4, 0.3, 0.3, 0.0])
    verdict = iv.check_ppt(desc, (1, 1))
    data = json.loads(formats.dumps_verdict(verdict))
    assert data["criterion"] == "ppt:11"
    assert data["outcome"] == "violated"
    assert data["failures"][0]["constraint"] == "mu=11,alpha=11"
    assert data["failures"][0]["bound"] == 0.0
    assert data["failures"][0]["value"] == pytest.approx(-0.05)

    full = json.loads(formats.dumps_verdict(iv.check_ppt_all(desc)))
    assert full["biseparable"]["criterion"] == "bisep"
    poly = json.loads(formats.dumps_verdict(iv.check_polytope(desc)))
    assert poly["necessary_only"] is True and poly["outcome"] == "satisfied"


def test_qopb_round_trip_bitwise():
    gen = np.random.default_rng(2)
    m = gen.standard_normal((9, 9)) + 1j * gen.standard_normal((9, 9))
    op = iv.Operator(3, 2, m)
    blob = formats.qopb_encode(op)
    assert blob[:4] == b"QOPB" and blob[4] == 1
    back = formats.qopb_decode(blob)
    assert (back.d, back.n) == (3, 2)
    assert np.array_equal(back.mat, op.mat)


def test_qopb_layout_is_interleaved_f64_pairs():
    """Bytes equal the reference (re, im) f64 interleaving; the decoded
    matrix is an aligned, C-contiguous complex128 array."""
    gen = np.random.default_rng(3)
    m = gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16))
    op = iv.Operator(2, 4, m)
    interleaved = np.empty((16, 16, 2), dtype="<f8")
    interleaved[:, :, 0] = m.real
    interleaved[:, :, 1] = m.imag
    reference = b"QOPB" + struct.pack("<BII", 1, 2, 4) + interleaved.tobytes()
    blob = formats.qopb_encode(op)
    assert isinstance(blob, bytes) and blob == reference
    back = formats.qopb_decode(blob).mat
    assert back.flags.aligned and back.flags.c_contiguous
    assert back.dtype == np.complex128 and np.array_equal(back, m)


def test_qopb_rejects_malformed_blobs():
    op = identity(2, 1)
    blob = formats.qopb_encode(op)
    with pytest.raises(ValueError):
        formats.qopb_decode(b"NOPE" + blob[4:])
    with pytest.raises(ValueError):
        formats.qopb_decode(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(ValueError):
        formats.qopb_decode(blob[:-8])
    with pytest.raises(ValueError):
        formats.qopb_decode(b"QOPB")
    # a header whose d**n would be a huge integer is rejected before forming it
    for d, n in ((3, 2**32 - 1), (2**32 - 1, 2**32 - 1), (2, 13), (65, 2)):
        with pytest.raises(ValueError, match="invalid QOPB header"):
            formats.qopb_decode(b"QOPB\x01" + struct.pack("<II", d, n))
