import pytest

from invariant_states import bits


@pytest.mark.parametrize("k", range(1, 13))
def test_all_labels_is_the_index_encoding_in_all_vectors_order(k):
    labels = bits.all_labels(k)
    assert labels == [format(i, f"0{k}b") for i in range(2**k)]
    assert labels == [bits.bits_str(v) for v in bits.all_vectors(k)]
    assert all(bits.bits_str(bits.parse_bits(name)) == name for name in labels)


def test_first_bit_most_significant():
    assert bits.all_labels(2) == ["00", "01", "10", "11"]
    assert bits.all_labels(3)[1] == "001"


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
