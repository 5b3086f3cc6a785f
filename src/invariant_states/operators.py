"""Dense complex operators on tensor powers of a qudit space.

Everything is stored as a full d^n x d^n complex matrix; nothing here is
sparse-aware and supported sizes are deliberately small (matrix side up
to 4096).  Subsystems are numbered 1..n, matching the usual reading of a
basis label |i_1 i_2 ... i_n> from left to right.

All values are immutable after construction: an Operator holds a
read-only matrix that no caller can write (see :func:`_readonly`), so
operators can be shared freely between threads.  The dense builders that
only the independent oracle needs live in :mod:`.selfcheck`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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


def _norm(values: np.ndarray) -> float:
    # the Frobenius norm by one numpy sum, not a BLAS dot as in np.linalg.norm
    return float(np.sqrt(np.add.reduce(np.ravel(values).view(np.float64) ** 2)))


class _Fresh:
    """An array handed over by the code that has just made it and keeps no
    other reference to it, so that :func:`_readonly` freezes it in place
    instead of copying it: a dense result is never held twice."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _readonly(values) -> np.ndarray:
    """``values`` as a read-only C-contiguous complex array that no caller
    can write: always a copy, since even a read-only array can be made
    writable again by its owner, except for the array in a :class:`_Fresh`
    of that dtype and layout, which is frozen and kept."""
    if type(values) is _Fresh:
        a = values.array
        if a.dtype == np.complex128 and a.flags.c_contiguous and a.flags.owndata:
            a.setflags(write=False)
            return a
        values = a
    out = np.array(values, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


def _real(values) -> np.ndarray:
    """``values`` as a float array, copied only to convert them; only bool,
    integer and float input is accepted, never complex, string, bytes or
    object input, which numpy would cast or parse."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"expected real values, got {a.dtype} entries")
    return a.astype(float, copy=False)


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
        m = _readonly(self.mat)
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
        if (self.d, self.n) != (_operator(other).d, other.n):
            raise ValueError(f"operator spaces differ: d={self.d},n={self.n} vs d={other.d},n={other.n}")


def _operator(a) -> Operator:
    # a itself if it is an Operator, the rule for every operator argument
    if not isinstance(a, Operator):
        raise TypeError(f"expected Operator, got {type(a).__name__}")
    return a


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
