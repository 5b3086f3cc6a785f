"""File formats: canonical JSON and the QOPB binary operator container.

Canonical JSON is deterministic byte-for-byte: keys sorted, compact
separators, floats printed with 17 significant digits (enough to round
trip any double).  Descriptors and verdicts re-serialize to identical
bytes after a parse, which keeps pipeline outputs diffable.

QOPB layout: magic ``QOPB``, version byte 0x01, little-endian u32 local
dimension, u32 subsystem count, then d^(2n) little-endian f64 pairs
(re, im) in row-major order.  :func:`qopb_encode` and :func:`qopb_decode`
convert whole matrices; :func:`qopb_write_entries` and
:func:`qopb_entries` write and read selected entries of a file, so the
CLI's ``build --dense`` and exact ``twirl`` never hold the matrix.  The
two readers check the header and the length through one function.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .bits import as_bits
from .operators import Operator, _side
from .simplex import SeparabilityVerdict, StateDescriptor

QOPB_MAGIC = b"QOPB"
QOPB_VERSION = 1
_HEADER = struct.Struct("<4sBII")  # magic, version, local dimension, subsystem count
_READ_BLOCK = 1 << 16  # entries per read of qopb_entries: a 1 MiB buffer

DESCRIPTOR_VERSION = 1


def canonical_json(value) -> str:
    """Serialize dicts with string keys, lists, tuples and JSON scalars to
    deterministic JSON (sorted keys, 17-digit floats, no NaN or inf)."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} is not representable in JSON")
        return format(value, ".17g")
    if isinstance(value, dict):
        items = (f"{json.dumps(k, ensure_ascii=False)}:{canonical_json(value[k])}" for k in sorted(value))
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(canonical_json, value)) + "]"
    return json.dumps(value, ensure_ascii=False)


# ---------------------------------------------------------------------------
# state descriptors


def dumps_descriptor(desc: StateDescriptor) -> str:
    data = {
        "version": DESCRIPTOR_VERSION,
        "d": desc.d,
        "K": desc.K,
        "sigma": desc.sigma,
        "fidelities": desc.fidelities.tolist(),
    }
    return canonical_json(data) + "\n"


def parse_descriptor(text: str) -> StateDescriptor:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid descriptor JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("descriptor JSON must be an object")
    missing = {"version", "d", "K", "sigma", "fidelities"} - set(data)
    if missing:
        raise ValueError(f"descriptor JSON missing keys: {sorted(missing)}")
    if type(data["version"]) is not int or data["version"] != DESCRIPTOR_VERSION:
        raise ValueError(f"unsupported descriptor version {data['version']!r}")
    for key in ("d", "K"):
        if type(data[key]) is not int:
            raise ValueError(f"descriptor {key} must be an integer, got {data[key]!r}")
    sigma = data["sigma"]
    if not isinstance(sigma, list) or any(type(b) is not int for b in sigma):
        raise ValueError(f"descriptor sigma must be a list of 0/1 integers, got {sigma!r}")
    sigma = as_bits(sigma, data["K"], "descriptor sigma")
    fidelities = data["fidelities"]
    # json yields int, float or bool for scalars; bool is rejected like nesting
    if not isinstance(fidelities, list) or any(type(x) not in (int, float) for x in fidelities):
        raise ValueError("descriptor fidelities must be a flat list of numbers")
    try:
        fidelities = np.array(fidelities, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"descriptor fidelities must be finite: {exc}") from exc
    return StateDescriptor(data["d"], sigma, fidelities)


# ---------------------------------------------------------------------------
# verdicts


def verdict_to_dict(verdict: SeparabilityVerdict) -> dict:
    out = {
        "criterion": verdict.criterion,
        "outcome": verdict.outcome,
        "failures": [
            {"constraint": f.constraint, "value": f.value, "bound": f.bound}
            for f in verdict.failures
        ],
    }
    if verdict.necessary_only:
        out["necessary_only"] = True
    if verdict.biseparable is not None:
        out["biseparable"] = verdict_to_dict(verdict.biseparable)
    return out


def dumps_verdict(verdict: SeparabilityVerdict) -> str:
    return canonical_json(verdict_to_dict(verdict)) + "\n"


# ---------------------------------------------------------------------------
# QOPB


def _check_header(head: bytes, size: int) -> tuple[int, int, int]:
    """``(d, n, side)`` of a QOPB blob of ``size`` bytes that starts with
    ``head``; ValueError unless the header is valid and fixes that size."""
    if len(head) < _HEADER.size or head[:4] != QOPB_MAGIC:
        raise ValueError("not a QOPB blob: bad magic")
    _, version, d, n = _HEADER.unpack_from(head)
    if version != QOPB_VERSION:
        raise ValueError(f"unsupported QOPB version {version}")
    try:
        side = _side(d, n)
    except ValueError as exc:
        raise ValueError(f"invalid QOPB header: {exc}") from None
    expected = _HEADER.size + 16 * side * side
    if size != expected:
        raise ValueError(f"QOPB payload has {size} bytes, expected {expected}")
    return d, n, side


def qopb_encode(op: Operator) -> bytes:
    # a little-endian complex128 array already stores each entry as an
    # (re, im) f64 pair in row-major order, which is the QOPB payload
    payload = np.ascontiguousarray(op.mat, dtype="<c16")
    header = _HEADER.pack(QOPB_MAGIC, QOPB_VERSION, op.d, op.n)
    return b"".join((header, memoryview(payload).cast("B")))


def qopb_decode(data: bytes) -> Operator:
    d, n, side = _check_header(data, len(data))
    # the payload starts at offset 13, so the view is unaligned; the single
    # copy made by astype is aligned and native-endian
    mat = np.frombuffer(data, dtype="<c16", offset=_HEADER.size).reshape(side, side).astype(np.complex128)
    mat.setflags(write=False)  # handed to Operator without a copy
    return Operator(d, n, mat)


def qopb_write_entries(path, d: int, n: int, positions: np.ndarray, values: np.ndarray) -> None:
    """Write a QOPB file whose matrix is zero except for the real ``values``
    at the flat row-major ``positions``, without forming the matrix.

    The file is extended to its full size by truncation, so the zero
    entries read as all-zero bytes and stay holes on file systems that
    support them; each given entry is one positioned write.
    """
    side = _side(d, n)
    entries = np.zeros((positions.size, 2), dtype="<f8")  # (re, im) pairs
    entries[:, 0] = values
    payload = memoryview(entries).cast("B")
    with open(path, "wb") as f:
        fd = f.fileno()
        _pwrite(fd, _HEADER.pack(QOPB_MAGIC, QOPB_VERSION, d, n), 0)
        os.ftruncate(fd, _HEADER.size + 16 * side * side)
        # the entries of a moment expansion are hardly ever adjacent, so
        # runs of them are not worth coalescing into one write
        for i, position in enumerate(positions.tolist()):
            _pwrite(fd, payload[16 * i : 16 * i + 16], _HEADER.size + 16 * position)


def _pwrite(fd: int, data, offset: int) -> None:
    view = memoryview(data)
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


@contextmanager
def qopb_entries(path):
    """Open the QOPB file at ``path`` for reading selected entries.

    Checks the header and the file length as :func:`qopb_decode` does, then
    yields ``(d, n, take)``: ``take(positions)`` returns the complex entries
    at flat row-major positions, in the shape of ``positions``.  It reads
    only the blocks of _READ_BLOCK entries that hold a position, into one
    reused buffer, so the matrix is never held in memory.
    """
    with open(path, "rb") as f:
        d, n, side = _check_header(f.read(_HEADER.size), os.fstat(f.fileno()).st_size)
        yield d, n, functools.partial(_read_entries, f, side * side)


def _read_entries(f, total: int, positions: np.ndarray) -> np.ndarray:
    flat = positions.reshape(-1)
    order = np.argsort(flat)
    ordered = flat[order]
    blocks = ordered // _READ_BLOCK
    # indices into ordered where a new block starts
    starts = np.flatnonzero(np.diff(blocks, prepend=-1)).tolist()
    raw = bytearray(16 * _READ_BLOCK)
    block = np.frombuffer(raw, dtype="<c16")
    out = np.empty(flat.size, dtype=np.complex128)
    for lo, hi in zip(starts, starts[1:] + [flat.size]):
        first = int(blocks[lo]) * _READ_BLOCK
        size = 16 * min(_READ_BLOCK, total - first)
        f.seek(_HEADER.size + 16 * first)
        if f.readinto(memoryview(raw)[:size]) != size:
            raise ValueError("QOPB file shrank while it was read")
        out[order[lo:hi]] = block[ordered[lo:hi] - first]
    return out.reshape(positions.shape)
