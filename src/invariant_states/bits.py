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
from typing import Iterable, Iterator, Optional

Bits = tuple[int, ...]


def as_bits(bits: Iterable[int], k: Optional[int] = None, name: str = "bit vector") -> Bits:
    """Validate a nonempty bit sequence (every entry exactly 0 or 1, so 0.5
    is rejected rather than rounded, and exactly k entries if k is given)
    and return it as a tuple of ints; error messages name it ``name``."""
    raw = tuple(bits)
    if not all(b == 0 or b == 1 for b in raw):
        raise ValueError(f"{name} entries must be 0 or 1, got {raw!r}")
    if not raw:
        raise ValueError(f"{name} must have length >= 1")
    if k is not None and len(raw) != k:
        raise ValueError(f"{name} has {len(raw)} bits, expected {k}")
    return tuple(map(int, map(bool, raw)))


def parse_bits(text: str) -> Bits:
    """Parse a bitstring such as '01' into (0, 1)."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"expected a nonempty string of 0s and 1s, got {text!r}")
    return tuple(int(c) for c in text)


def bits_str(bits: Iterable[int]) -> str:
    return "".join(map(str, as_bits(bits)))


def xor(a: Iterable[int], b: Iterable[int]) -> Bits:
    """Componentwise addition mod 2."""
    a = as_bits(a)
    return tuple(x ^ y for x, y in zip(a, as_bits(b, len(a))))


def all_vectors(k: int) -> Iterator[Bits]:
    """All length-k bit vectors in increasing index order."""
    return product((0, 1), repeat=k)


def all_labels(k: int) -> list[str]:
    """all_vectors(k) as bitstrings: entry i is the length-k label of index i."""
    return list(map("".join, product("01", repeat=k)))
