"""File formats: canonical JSON and the QOPB binary operator container.

Canonical JSON is deterministic byte-for-byte: keys sorted, compact
separators, floats printed with 17 significant digits (enough to round
trip any double).  Descriptors and verdicts re-serialize to identical
bytes after a parse, which keeps pipeline outputs diffable.

QOPB layout: magic ``QOPB``, version byte 0x01, little-endian u32 local
dimension, u32 subsystem count, then d^(2n) little-endian f64 pairs
(re, im) in row-major order.  :func:`qopb_encode` and :func:`qopb_decode`
convert whole matrices, and :func:`qopb_write` writes one to a file
without a second copy.  :func:`qopb_write_entries` and :func:`qopb_entries`
make one positioned write or read per selected entry of a file, so the
CLI's ``build --dense`` and exact ``twirl`` never hold the matrix.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from itertools import repeat
from json.encoder import encode_basestring

import numpy as np

from .bits import as_bits
from .operators import Operator, _Fresh, _side
from .simplex import SeparabilityVerdict, StateDescriptor

QOPB_MAGIC = b"QOPB"
QOPB_VERSION = 1
_HEADER = struct.Struct("<4sBII")  # magic, version, local dimension, subsystem count
_ENTRY = np.dtype("<c16")  # one matrix entry: a little-endian f64 pair (re, im)

DESCRIPTOR_VERSION = 1


def canonical_json(value) -> str:
    """Serialize dicts with string keys, lists, tuples and JSON scalars to
    deterministic JSON (sorted keys, 17-digit floats, no NaN or inf).

    A float is written by ``format(value, '.17g')``.  Strings are written by
    ``json.encoder.encode_basestring``, the encoder that
    ``json.dumps(..., ensure_ascii=False)`` calls for them, without a
    ``json.dumps`` call per string.  :func:`dumps_verdict` writes its
    failure columns by the same two rules."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} is not representable in JSON")
        return format(value, _FLOAT)
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        items = (f"{canonical_json(k)}:{canonical_json(value[k])}" for k in sorted(value))
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(canonical_json, value)) + "]"
    return json.dumps(value, ensure_ascii=False)


_FLOAT = ".17g"  # the format spec of every float


# ---------------------------------------------------------------------------
# state descriptors


def dumps_descriptor(desc: StateDescriptor) -> str:
    # canonical_json of the descriptor's dict, keys in sorted order, and "\n"
    fidelities = ",".join(map(float.__format__, desc.fidelities.tolist(), repeat(_FLOAT)))
    sigma = ",".join(map(str, desc.sigma))
    head = f'{{"K":{desc.K},"d":{desc.d},"fidelities":['
    return f'{head}{fidelities}],"sigma":[{sigma}],"version":{DESCRIPTOR_VERSION}}}\n'


def parse_descriptor(text: str) -> StateDescriptor:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides malformed text: an integer literal past Python's digit
        # limit, whose advice to raise the limit is no use here, and deep
        # nesting
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise ValueError(f"invalid descriptor JSON: {reason}") from exc
    if not isinstance(data, dict):
        raise ValueError("descriptor JSON must be an object")
    missing = {"version", "d", "K", "sigma", "fidelities"}.difference(data)
    if missing:
        raise ValueError(f"descriptor JSON missing keys: {sorted(missing)}")
    if type(data["version"]) is not int or data["version"] != DESCRIPTOR_VERSION:
        raise ValueError(f"unsupported descriptor version {data['version']!r}")
    for key in ("d", "K"):
        if type(data[key]) is not int:
            raise ValueError(f"descriptor {key} must be an integer, got {data[key]!r}")
    sigma = data["sigma"]
    if not isinstance(sigma, list) or not set(map(type, sigma)) <= {int}:
        raise ValueError(f"descriptor sigma must be a list of 0/1 integers, got {sigma!r}")
    sigma = as_bits(sigma, data["K"], "descriptor sigma")
    fidelities = data["fidelities"]
    # json yields int, float or bool for scalars; bool is rejected like nesting
    if not isinstance(fidelities, list) or not set(map(type, fidelities)) <= {int, float}:
        raise ValueError("descriptor fidelities must be a flat list of numbers")
    try:
        fidelities = np.array(fidelities, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"descriptor fidelities must be finite: {exc}") from exc
    return StateDescriptor(data["d"], sigma, fidelities)


# ---------------------------------------------------------------------------
# verdicts


def dumps_verdict(verdict: SeparabilityVerdict) -> str:
    """Canonical JSON of a verdict: ``biseparable`` (if any), ``criterion``,
    ``failures`` (each ``bound``, ``constraint``, ``value``),
    ``necessary_only`` (if set) and ``outcome``, in that sorted key order.

    Written as pieces joined once at the end; the bytes are those of
    :func:`canonical_json` on the equivalent nested dict.  The failures of
    a checker's verdict are read from its columns, with no dict per
    failure and never as :class:`.simplex.ConstraintFailure` tuples: each
    float of its table is formatted once, and one template of the pieces
    of a failure, repeated, gets its slots filled column by column.  Each
    failure of a verdict built from a tuple is written as
    :func:`canonical_json` writes its dict."""
    pieces: list[str] = []
    _verdict_pieces(verdict, pieces)
    pieces.append("\n")
    return "".join(pieces)


# the pieces of one failure of a checker's verdict, with slots for its
# bound, the head and label of its name, and its value
_FAILURE = [',{"bound":', None, ',"constraint":"', None, None, '","value":', None, "}"]


def _verdict_pieces(verdict: SeparabilityVerdict, pieces: list[str]) -> None:
    pieces.append("{")
    if verdict.biseparable is not None:
        pieces.append('"biseparable":')
        _verdict_pieces(verdict.biseparable, pieces)
        pieces.append(",")
    pieces.append(f'"criterion":{canonical_json(verdict.criterion)},"failures":[')
    columns = verdict._columns
    if columns is None:
        failures = ({"bound": b, "constraint": c, "value": v} for c, v, b in verdict.failures)
        pieces.append(",".join(map(canonical_json, failures)))
    elif columns.cols:
        row = _FAILURE * len(columns.cols)
        # the floats of a checker's verdict are finite, and a table float
        # is shared by many failures in a polytope verdict
        texts = list(map(float.__format__, columns.table, repeat(_FLOAT)))
        row[1::8] = map(texts.__getitem__, columns.bounds)
        row[3::8] = map(columns.heads.__getitem__, columns.rows)
        row[4::8] = map(columns.labels.__getitem__, columns.cols)
        row[6::8] = map(texts.__getitem__, columns.values)
        row[0] = '{"bound":'
        pieces += row
    pieces.append("]")
    if verdict.necessary_only:
        pieces.append(',"necessary_only":true')
    pieces.append(f',"outcome":{canonical_json(verdict.outcome)}}}')


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
    expected = _offset(side * side)
    if size != expected:
        raise ValueError(f"QOPB payload has {size} bytes, expected {expected}")
    return d, n, side


def _offset(position: int) -> int:
    """Byte offset of the entry at flat row-major ``position`` in a QOPB blob."""
    return _HEADER.size + _ENTRY.itemsize * position


def qopb_encode(op: Operator) -> bytes:
    payload = np.ascontiguousarray(op.mat, dtype=_ENTRY)
    header = _HEADER.pack(QOPB_MAGIC, QOPB_VERSION, op.d, op.n)
    return b"".join((header, memoryview(payload).cast("B")))


def qopb_write(path, op: Operator) -> None:
    """Write the bytes of :func:`qopb_encode` to a QOPB file at ``path``,
    the header and then the matrix's own buffer, without joining them
    into a second copy.  A write that fails removes the file."""
    _write(path, op.d, op.n, [(0, np.ascontiguousarray(op.mat, dtype=_ENTRY))])


def qopb_decode(data: bytes) -> Operator:
    d, n, side = _check_header(data, len(data))
    # the payload starts at offset 13, so the view is unaligned; the single
    # copy made by astype is aligned and native-endian
    mat = np.frombuffer(data, dtype=_ENTRY, offset=_offset(0)).reshape(side, side).astype(np.complex128)
    return Operator(d, n, _Fresh(mat))


def qopb_write_entries(path, d: int, n: int, positions: np.ndarray, values: np.ndarray) -> None:
    """Write a QOPB file whose matrix is zero except for the real ``values``
    at the flat row-major ``positions``, without forming the matrix.

    The file is extended to its full size by truncation, so the zero
    entries read as all-zero bytes and stay holes on file systems that
    support them.  A write that fails removes the file.
    """
    entries = np.asarray(values, dtype=_ENTRY).reshape(-1, 1)
    # one run per entry: those of a moment expansion are hardly ever adjacent
    _write(path, d, n, zip(positions.tolist(), entries))


def _write(path, d: int, n: int, runs) -> None:
    # a QOPB file at path, zero but for each run (position, entries) of
    # entries from flat row-major position on; extended to full size before
    # the runs, so none moves the file's end.  A failed write removes the file
    side = _side(d, n)
    with open(path, "wb") as f:
        fd = f.fileno()
        try:
            _pwrite(fd, _HEADER.pack(QOPB_MAGIC, QOPB_VERSION, d, n), 0)
            os.ftruncate(fd, _offset(side * side))
            for position, entries in runs:
                _pwrite(fd, entries, _offset(position))
        except OSError:
            os.unlink(path)
            raise


def _pwrite(fd: int, data, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


@contextmanager
def qopb_entries(path):
    """Open the QOPB file at ``path`` for reading selected entries.

    Checks the header and the file length as :func:`qopb_decode` does, then
    yields ``(d, n, take)``: ``take(positions)`` returns the complex entries
    at flat row-major positions, in the shape of ``positions``, with one
    positioned read per distinct position, so the matrix is never held.
    Only those entries are read, so a non-finite entry elsewhere in the
    file goes unnoticed; :func:`qopb_decode` reads and checks every entry.
    """
    with open(path, "rb") as f:
        fd = f.fileno()
        d, n, _ = _check_header(f.read(_HEADER.size), os.fstat(fd).st_size)

        def take(positions: np.ndarray) -> np.ndarray:
            # moment patterns share many positions, so each is read once
            unique, inverse = np.unique(positions, return_inverse=True)
            entries = np.empty(unique.shape, dtype=_ENTRY)
            for position, entry in zip(unique.tolist(), entries.reshape(-1, 1)):
                if os.preadv(fd, [entry], _offset(position)) != _ENTRY.itemsize:
                    raise ValueError("QOPB file shrank while it was read")
            return entries.astype(np.complex128)[inverse].reshape(positions.shape)

        yield d, n, take
