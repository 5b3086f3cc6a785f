"""Binary pair-label vectors and their integer encoding.

A length-K tuple of bits selects one member of a projector family, one
partial-transposition pattern, or one invariance type per qudit pair.
The first bit is the most significant one in the integer encoding, so for
K = 2 the vector (1, 0) has index 2.  Every fidelity vector in this
package is ordered by that encoding; this module is the single place
where the convention lives.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

Bits = tuple[int, ...]


def as_bits(bits: Iterable[int]) -> Bits:
    """Normalize a bit sequence to a tuple of 0/1 ints, validating entries."""
    out = tuple(int(b) for b in bits)
    if len(out) < 1:
        raise ValueError("bit vector must have length >= 1")
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"bit vector entries must be 0 or 1, got {tuple(bits)!r}")
    return out


def parse_bits(text: str) -> Bits:
    """Parse a bitstring such as '01' into (0, 1)."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"expected a nonempty string of 0s and 1s, got {text!r}")
    return tuple(int(c) for c in text)


def bits_str(bits: Iterable[int]) -> str:
    return "".join(str(int(b)) for b in bits)


def label(index: int, k: int) -> str:
    """Bitstring of length k whose integer encoding is index."""
    return format(index, f"0{k}b")


def xor(a: Iterable[int], b: Iterable[int]) -> Bits:
    """Componentwise addition mod 2."""
    a, b = as_bits(a), as_bits(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x ^ y for x, y in zip(a, b))


def all_vectors(k: int) -> Iterator[Bits]:
    """All length-k bit vectors in increasing index order."""
    return product((0, 1), repeat=k)
