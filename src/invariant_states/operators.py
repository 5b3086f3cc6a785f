"""Dense complex operators on tensor powers of a qudit space.

Everything is stored as a full d^n x d^n complex matrix; nothing here is
sparse-aware and supported sizes are deliberately small (matrix side up
to 4096).  Subsystems are numbered 1..n, matching the usual reading of a
basis label |i_1 i_2 ... i_n> from left to right.

All values are immutable after construction: an Operator holds a
read-only matrix that no caller can write (see :func:`_readonly`), so
operators can be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_SIDE = 4096

# the largest local dimension: every integer up to it is exactly a float, and
# no per-pair PPT transfer can overflow (see simplex._step)
_MAX_DIMENSION = 2**53

HERMITICITY_ATOL = 1e-10


def _integer(value, name: str) -> int:
    """``value`` as a Python int, never truncated: numpy integers count,
    floats and strings are rejected; error messages name it ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def dimension(d) -> int:
    """A local dimension as a Python int: an integer (numpy integers count), 2 <= d <= 2**53."""
    d = _integer(d, "local dimension")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    if d > _MAX_DIMENSION:
        raise ValueError(f"local dimension must be <= 2**53, got a {d.bit_length()}-bit integer")
    return d


def _side(d, n) -> int:
    """Matrix side d**n of n >= 1 qudits, at most MAX_SIDE.

    With d >= 2 any n beyond the bit length of MAX_SIDE is too large, so
    bounding n first keeps d**n small for every input.
    """
    d, n = dimension(d), _integer(n, "subsystem count")
    if n < 1:
        raise ValueError(f"subsystem count must be >= 1, got {n}")
    if n > MAX_SIDE.bit_length() or d**n > MAX_SIDE:
        raise ValueError(f"scale exceeded: matrix side d**n for d={d}, n={n} is above the supported {MAX_SIDE}")
    return d**n


class _Fresh:
    """An array handed over by the code that has just made it and keeps no
    other reference to it, so that :func:`_readonly` freezes it in place
    instead of copying it: a dense result is never held twice."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _readonly(values, dtype) -> np.ndarray:
    """``values`` as a read-only C-contiguous ``dtype`` array that no caller
    can write: always a copy, since even a read-only array can be made
    writable again by its owner, except for the array in a :class:`_Fresh`
    of that dtype and layout, which is frozen and kept.  Complex input to
    a real dtype is rejected."""
    if type(values) is _Fresh:
        a = values.array
        if a.dtype == dtype and a.flags.c_contiguous and a.flags.owndata:
            a.setflags(write=False)
            return a
        values = a
    a = np.asarray(values)
    if np.iscomplexobj(a) and not np.issubdtype(dtype, np.complexfloating):
        raise ValueError(f"expected real values, got {a.dtype} entries")
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense operator on ``n`` qudits of local dimension ``d``, compared by value.

    Attributes:
        d: local dimension of each subsystem, at least 2.
        n: number of subsystems, at least 1.
        mat: complex matrix of shape (d**n, d**n), read-only, with finite
            entries (ValueError otherwise).
    """

    d: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", dimension(self.d))
        object.__setattr__(self, "n", _integer(self.n, "subsystem count"))
        side = _side(self.d, self.n)
        m = _readonly(self.mat, np.complex128)
        if m.shape != (side, side):
            raise ValueError(f"matrix shape {m.shape} does not match d**n = {side} for d={self.d}, n={self.n}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        object.__setattr__(self, "mat", m)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.n) == (other.d, other.n) and np.array_equal(self.mat, other.mat)

    def __hash__(self):
        return hash((self.d, self.n))

    @property
    def side(self) -> int:
        return self.d**self.n

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.d, self.n, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.d, self.n, self.mat - other.mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.d, self.n, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return Operator(self.d, self.n, self.mat / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.d, self.n, self.mat @ other.mat)

    def _check_same_space(self, other: "Operator"):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError(
                f"operator spaces differ: d={self.d},n={self.n} vs "
                f"d={other.d},n={other.n}"
            )


def identity(d: int, n: int = 1) -> Operator:
    return Operator(d, n, np.eye(_side(d, n)))


def basis_ket(d: int, digits: str | Sequence[int]) -> np.ndarray:
    """Computational basis vector |i_1 ... i_n> as a length d**n array."""
    d = dimension(d)
    if isinstance(digits, str):
        digits = [int(c) for c in digits]
    digits = [_integer(i, "digit") for i in digits]
    side = _side(d, len(digits))
    if any(not 0 <= i < d for i in digits):
        raise ValueError(f"digits must lie in [0, {d}), got {digits}")
    ket = np.zeros(side, dtype=np.complex128)
    ket[np.ravel_multi_index(digits, (d,) * len(digits))] = 1.0
    return ket


def projector_onto(d: int, vector: np.ndarray) -> Operator:
    """Rank-1 projector |v><v| onto a (normalized) vector of length d**n."""
    d = dimension(d)
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    n = max(1, round(math.log(v.size or 1, d)))
    if _side(d, n) != v.size:
        raise ValueError(f"vector length {v.size} is not a power of d={d}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot project onto the zero vector")
    v = v / norm
    return Operator(d, n, np.outer(v, v.conj()))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product with a's subsystems leading."""
    if a.d != b.d:
        raise ValueError(f"local dimension mismatch: {a.d} vs {b.d}")
    _side(a.d, a.n + b.n)  # before np.kron allocates the product
    return Operator(a.d, a.n + b.n, np.kron(a.mat, b.mat))


def _check_subsystems(subsystems: Iterable[int], n: int, allow_empty=False) -> tuple[int, ...]:
    subs = [_integer(s, "subsystem index") for s in subsystems]
    out = tuple(sorted(set(subs)))
    if len(out) != len(subs):
        raise ValueError(f"duplicate subsystem index in {subs}")
    if not out and not allow_empty:
        raise ValueError("subsystem set must be nonempty")
    if out and (out[0] < 1 or out[-1] > n):
        raise ValueError(f"subsystem indices {out} out of range 1..{n}")
    return out


def partial_trace(a: Operator, subsystems: Iterable[int]) -> Operator:
    """Trace out the listed subsystems (1-based).

    The result acts on the complement subsystems in their original order
    and has the same total trace as the input.
    """
    subs = _check_subsystems(subsystems, a.n)
    keep = [s for s in range(1, a.n + 1) if s not in subs]
    if not keep:
        raise ValueError("cannot trace out every subsystem; use .trace()")
    # row axis s - 1 pairs with column axis n + s - 1; a traced subsystem
    # gives both the same label, so einsum sums its diagonal
    cols = [s - 1 if s in subs else a.n + s - 1 for s in range(1, a.n + 1)]
    out = [s - 1 for s in keep] + [a.n + s - 1 for s in keep]
    reduced = np.einsum(a.mat.reshape((a.d,) * (2 * a.n)), list(range(a.n)) + cols, out)
    side = a.d ** len(keep)
    return Operator(a.d, len(keep), reduced.reshape(side, side))


def partial_transpose(a: Operator, subsystems: Iterable[int]) -> Operator:
    """Transpose the listed tensor factors in the computational basis.

    An empty subsystem set is allowed and returns the operator unchanged.
    Applying the same transposition twice restores the input exactly.
    """
    subs = _check_subsystems(subsystems, a.n, allow_empty=True)
    if not subs:
        return a
    axes = list(range(2 * a.n))
    for s in subs:
        axes[s - 1], axes[a.n + s - 1] = axes[a.n + s - 1], axes[s - 1]
    out = a.mat.reshape((a.d,) * (2 * a.n)).transpose(axes).reshape(a.side, a.side)
    return Operator(a.d, a.n, out)


def min_eigenvalue(a: Operator) -> float:
    """Smallest eigenvalue of a Hermitian operator.

    Raises ValueError if the input deviates from Hermiticity by more than
    ``HERMITICITY_ATOL`` (1e-10) in any entry.
    """
    deviation = float(np.max(np.abs(a.mat - a.mat.conj().T)))
    if deviation > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    return float(np.linalg.eigvalsh(a.mat)[0])


def frobenius_distance(a: Operator, b: Operator) -> float:
    a._check_same_space(b)
    return float(np.linalg.norm(a.mat - b.mat))


@dataclass(frozen=True)
class Rng:
    """Deterministic random stream identified by (seed, counter).

    Built on the counter-based Philox generator, so identical (seed,
    counter) values reproduce identical samples on every platform, and
    distinct counters give non-overlapping streams.  Rng values are
    immutable; derive fresh streams with :meth:`at`.
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        # Philox takes a 128-bit key, and each counter value below owns a
        # 2**128-sample block of its 256-bit counter
        for name in ("seed", "counter"):
            value = _integer(getattr(self, name), name)
            if not 0 <= value < 2**128:
                raise ValueError(f"{name} must lie in [0, 2**128), got {value}")
            object.__setattr__(self, name, value)

    def at(self, offset: int) -> "Rng":
        """The stream ``offset`` counter steps ahead of this one."""
        return Rng(self.seed, self.counter + _integer(offset, "offset"))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed, counter=self.counter << 128))

    def _normals(self, out: np.ndarray) -> np.ndarray:
        # out[i] = the normals self.at(i).generator() draws, from one Philox
        # moved in place to each counter c << 128: 64-bit words 2 and 3
        gen = self.generator()
        state = gen.bit_generator.state
        words = state["state"]["counter"]
        for i, part in enumerate(out):
            counter = self.counter + i
            words[2], words[3] = counter & 0xFFFF_FFFF_FFFF_FFFF, counter >> 64
            gen.bit_generator.state = state  # also empties the buffer of drawn words
            gen.standard_normal(out=part)
        return out


def _haar_sample(normals: np.ndarray) -> np.ndarray:
    """Haar-distributed d x d unitaries from standard normals of shape
    (..., 2, d, d), one unitary per leading index.

    Ginibre matrix (real part, then imaginary part), QR decomposition, then
    the R-diagonal phase correction that makes the distribution exactly
    Haar rather than merely unitary (Mezzadri, arXiv:math-ph/0609050).
    """
    z = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(d: int, rng: Rng) -> Operator:
    """A Haar-random unitary on a single d-dimensional system.

    Deterministic in ``rng``: the same (seed, counter) yields the same
    matrix bit for bit.  Draw sequences with ``haar_unitary(d, rng.at(i))``.
    """
    d = _side(d, 1)  # before the normals are drawn
    return Operator(d, 1, _haar_sample(rng.generator().standard_normal((2, d, d))))
