"""File formats: canonical JSON and the QOPB binary operator container.

Canonical JSON is deterministic byte-for-byte: keys sorted, compact
separators, floats printed with 17 significant digits (enough to round
trip any double).  Descriptors and verdicts re-serialize to identical
bytes after a parse, which keeps pipeline outputs diffable.

QOPB layout: magic ``QOPB``, version byte 0x01, little-endian u32 local
dimension, u32 subsystem count, then d^(2n) little-endian f64 pairs
(re, im) in row-major order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .bits import as_bits
from .operators import Operator, _side
from .simplex import SeparabilityVerdict, StateDescriptor

QOPB_MAGIC = b"QOPB"
QOPB_VERSION = 1

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


def qopb_encode(op: Operator) -> bytes:
    # a little-endian complex128 array already stores each entry as an
    # (re, im) f64 pair in row-major order, which is the QOPB payload
    payload = np.ascontiguousarray(op.mat, dtype="<c16")
    header = QOPB_MAGIC + struct.pack("<BII", QOPB_VERSION, op.d, op.n)
    return b"".join((header, memoryview(payload).cast("B")))


def qopb_decode(data: bytes) -> Operator:
    if len(data) < 13 or data[:4] != QOPB_MAGIC:
        raise ValueError("not a QOPB blob: bad magic")
    if data[4] != QOPB_VERSION:
        raise ValueError(f"unsupported QOPB version {data[4]}")
    d, n = struct.unpack_from("<II", data, 5)
    try:
        side = _side(d, n)
    except ValueError as exc:
        raise ValueError(f"invalid QOPB header: {exc}") from None
    expected = 13 + 16 * side * side
    if len(data) != expected:
        raise ValueError(f"QOPB payload has {len(data)} bytes, expected {expected}")
    # the payload starts at offset 13, so the view is unaligned; the single
    # copy made by astype is aligned and native-endian
    mat = np.frombuffer(data, dtype="<c16", offset=13).reshape(side, side).astype(np.complex128)
    mat.setflags(write=False)  # handed to Operator without a copy
    return Operator(d, n, mat)
