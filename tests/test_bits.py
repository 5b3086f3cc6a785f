import pytest

from invariant_states import bits


def test_roundtrip_index():
    for k in (1, 2, 3):
        for idx in range(2**k):
            assert int(bits.label(idx, k), 2) == idx
            assert bits.bits_str(bits.parse_bits(bits.label(idx, k))) == bits.label(idx, k)


def test_first_bit_most_significant():
    assert bits.label(2, 2) == "10"
    assert bits.label(1, 2) == "01"
    assert bits.label(1, 3) == "001"
    assert [bits.bits_str(v) for v in bits.all_vectors(3)] == [bits.label(i, 3) for i in range(8)]


def test_all_vectors_order():
    assert list(bits.all_vectors(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_xor_and_product():
    assert bits.xor((1, 0, 1), (1, 1, 0)) == (0, 1, 1)
    with pytest.raises(ValueError):
        bits.xor((1, 0), (1,))


def test_parse_and_str():
    assert bits.parse_bits("01") == (0, 1)
    assert bits.bits_str((1, 1, 0)) == "110"
    with pytest.raises(ValueError):
        bits.parse_bits("")
    with pytest.raises(ValueError):
        bits.parse_bits("012")


def test_validation():
    with pytest.raises(ValueError):
        bits.as_bits(())
    with pytest.raises(ValueError):
        bits.as_bits((0, 2))
    # entries are never truncated, and a length is checked by name
    for bad in ((0.5,), (1, 1.7), ("1",), (float("nan"),)):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            bits.as_bits(bad)
    assert bits.as_bits((1.0, True, 0)) == (1, 1, 0)
    with pytest.raises(ValueError, match="--sigma has 1 bits, expected 2"):
        bits.as_bits((1,), 2, "--sigma")
