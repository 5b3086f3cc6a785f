"""Independent output checks for the benchmark.

Every reference here is computed from the defining formulas without
calling the library: PPT verdicts apply the per-pair 2x2 transfer blocks
axis by axis on the (2,)*K reshape of the fidelity vector (no Kronecker
product), polytope verdicts evaluate the hull and order bounds as array
expressions, and fidelities of dense states contract the matrix with
per-pair projector tensors (no dense K-pair projector).

Each ``check_*`` function returns a list of problems, empty when the
output is right.  :class:`Tally` turns those lists into the attempted and
failed counts that make up ``fail_frac``.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import product

import numpy as np

# the library's verdict threshold; the reference decides at the same value
PPT_ATOL = 1e-12
# build -> twirl round trip and MC-vs-exact fidelity agreement
FIDELITY_ATOL = 1e-10
# Frobenius distance of an N-sample MC twirl may exceed its expected
# root-mean-square value sqrt((Tr rho^2 - |T|^2) / N) by at most this factor
MC_DISTANCE_FACTOR = 3.0


class Tally:
    """Operations attempted and operations whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def bits(index: int, k: int) -> str:
    return format(index, f"0{k}b")


# ---------------------------------------------------------------------------
# descriptor-level references


def pair_block(d: int, family: int) -> np.ndarray:
    """Fidelity map of one transposed pair, Werner (0) or isotropic (1) family."""
    if family == 0:
        return np.array([[d - 1.0, 1.0], [d + 1.0, -1.0]]) / d
    return np.array([[1.0, 1.0], [1.0 + d, 1.0 - d]]) / 2


def transformed(fid, sigma, d: int, mu) -> np.ndarray:
    """Fidelities after the mu partial transpose, one pair axis at a time."""
    k = len(sigma)
    t = np.asarray(fid, dtype=float).reshape((2,) * k)
    for axis, (m, s) in enumerate(zip(mu, sigma)):
        if m:
            t = np.moveaxis(np.tensordot(t, pair_block(d, s), axes=([axis], [0])), -1, axis)
    return t.reshape(-1)


def ppt_failures(fid, sigma, d: int, patterns=None) -> list[str]:
    """Constraint names of every negative transformed fidelity, in verdict order."""
    k = len(sigma)
    names = []
    for mu in patterns if patterns is not None else product((0, 1), repeat=k):
        values = transformed(fid, sigma, d, mu)
        mu_bits = "".join(map(str, mu))
        names.extend(
            f"mu={mu_bits},alpha={bits(i, k)}" for i in np.flatnonzero(values < -PPT_ATOL)
        )
    return names


def polytope_failures(fid, sigma, d: int) -> list[str]:
    """Hull bounds 2^-|a| (2/d)^|sigma.a| and order bounds f_a <= f_b for |a| > |b|."""
    k = len(sigma)
    f = np.asarray(fid, dtype=float)
    labels = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    weight = labels.sum(axis=1)
    overlap = (labels & np.asarray(sigma)).sum(axis=1)
    bound = 0.5**weight * (2.0 / d) ** overlap
    names = [f"bound,alpha={bits(i, k)}" for i in np.flatnonzero(f > bound + PPT_ATOL)]
    order = (weight[:, None] > weight[None, :]) & (f[:, None] > f[None, :] + PPT_ATOL)
    names.extend(f"order,alpha={bits(i, k)},beta={bits(j, k)}" for i, j in np.argwhere(order))
    return names


def extremal_fidelities(sigma, overlaps, d: int) -> np.ndarray:
    """Transposed product-state fidelities as an outer product of per-pair factors."""
    out = np.ones(1)
    for s, a in zip(sigma, overlaps):
        factor = np.array([1.0 + a, 1.0 - a]) / 2 if s == 0 else np.array([1.0 - a / d, a / d])
        out = np.multiply.outer(out, factor).reshape(-1)
    return out


def _compare_verdict(verdict: dict, expected: list[str], what: str) -> list[str]:
    got = [f["constraint"] for f in verdict.get("failures", [])]
    outcome = "violated" if expected else "satisfied"
    problems = []
    if verdict.get("outcome") != outcome:
        problems.append(f"{what} outcome {verdict.get('outcome')!r}, reference {outcome!r}")
    if got != expected:
        problems.append(f"{what} failures differ: {len(got)} reported, {len(expected)} in reference")
    return problems


def check_ppt_verdict(verdict: dict, fid, sigma, d: int) -> list[str]:
    """A parsed ppt-all verdict against the reference, biseparable part included."""
    problems = _compare_verdict(verdict, ppt_failures(fid, sigma, d), "ppt-all")
    bisep = verdict.get("biseparable")
    if bisep is None:
        problems.append("ppt-all verdict has no biseparable part")
    else:
        ones = [(1,) * len(sigma)]
        problems += _compare_verdict(bisep, ppt_failures(fid, sigma, d, ones), "bisep")
    return problems


def check_polytope_verdict(verdict: dict, fid, sigma, d: int) -> list[str]:
    return _compare_verdict(verdict, polytope_failures(fid, sigma, d), "polytope")


def check_transforms(got: list, fid, sigma, d: int) -> list[str]:
    """transform_fidelities for every pattern, in index order."""
    k = len(sigma)
    if len(got) != 2**k:
        return [f"{len(got)} transformed vectors, expected {2**k}"]
    worst = max(
        float(np.max(np.abs(np.asarray(g) - transformed(fid, sigma, d, mu))))
        for g, mu in zip(got, product((0, 1), repeat=k))
    )
    return [] if worst <= PPT_ATOL else [f"transformed fidelities off by {worst:.3e}"]


def check_reduction(got, fid, sigma, pair: int) -> list[str]:
    want = np.asarray(fid, dtype=float).reshape((2,) * len(sigma)).sum(axis=pair - 1).reshape(-1)
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"reduced fidelities have shape {got.shape}, expected {want.shape}"]
    worst = float(np.max(np.abs(got - want)))
    return [] if worst <= PPT_ATOL else [f"reduced fidelities off by {worst:.3e}"]


def check_fidelities(got, want, what: str, atol: float = FIDELITY_ATOL) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: {got.size} fidelities, expected {want.size}"]
    worst = float(np.max(np.abs(got - want)))
    return [] if worst <= atol else [f"{what}: fidelities off by {worst:.3e}"]


def check_exit_code(code: int, fid, sigma, d: int) -> list[str]:
    """``check --strict`` exits 1 exactly when the reference finds a failure."""
    expected = 1 if ppt_failures(fid, sigma, d) else 0
    return [] if code == expected else [f"exit code {code}, reference {expected}"]


# ---------------------------------------------------------------------------
# dense states


def qopb_bytes(mat: np.ndarray, d: int, n: int) -> bytes:
    """QOPB container: magic, version 1, u32 d, u32 n, row-major (re, im) f64 pairs."""
    side = d**n
    payload = np.empty((side, side, 2), dtype="<f8")
    payload[..., 0], payload[..., 1] = mat.real, mat.imag
    return b"QOPB" + struct.pack("<BII", 1, d, n) + payload.tobytes()


def qopb_matrix(data: bytes) -> tuple[np.ndarray, int, int]:
    if data[:5] != b"QOPB\x01":
        raise ValueError("not a version-1 QOPB blob")
    d, n = struct.unpack_from("<II", data, 5)
    side = d**n
    flat = np.frombuffer(data, dtype="<f8", offset=13).reshape(side, side, 2)
    return flat[..., 0] + 1j * flat[..., 1], d, n


def _pair_tensor(d: int, family: int, member: int) -> np.ndarray:
    """Pair projector as a (d, d, d, d) tensor [row1, row2, col1, col2]."""
    eye = np.eye(d)
    ident = np.einsum("ac,bd->abcd", eye, eye)
    if family == 0:
        swap = np.einsum("ad,bc->abcd", eye, eye)
        return (ident + (-1) ** member * swap) / 2
    ent = np.einsum("ab,cd->abcd", eye, eye) / d
    return ent if member else ident - ent


def pair_trace(d: int, family: int, member: int) -> float:
    if family == 0:
        return d * (d + (-1) ** member) / 2
    return 1.0 if member else d * d - 1.0


def dense_fidelities(mat: np.ndarray, d: int, sigma) -> np.ndarray:
    """Tr(rho P_alpha) for every family member; pair i sits on slots (i, K+i)."""
    k = len(sigma)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    rows, cols = letters[: 2 * k], letters[2 * k : 4 * k]
    tensor = mat.reshape((d,) * (4 * k))
    out = np.empty(2**k)
    for idx, alpha in enumerate(product((0, 1), repeat=k)):
        operands = [tensor, list(map(letters.index, rows + cols))]
        for i, (s, a) in enumerate(zip(sigma, alpha)):
            operands += [_pair_tensor(d, s, a), [letters.index(c) for c in (cols[i], cols[k + i], rows[i], rows[k + i])]]
        out[idx] = np.einsum(*operands, [], optimize=True).real
    return out


def family_norm2(fid, d: int, sigma) -> float:
    """|T|_F^2 of the invariant state with these fidelities (orthogonal projectors)."""
    total = 0.0
    for f, alpha in zip(fid, product((0, 1), repeat=len(sigma))):
        total += f * f / math.prod(pair_trace(d, s, a) for s, a in zip(sigma, alpha))
    return total


def check_mc(estimate: np.ndarray, rho: np.ndarray, d: int, sigma, samples: int, distance: float) -> list[str]:
    """An MC twirl keeps the exact fidelities and lands within the sampling error."""
    exact = dense_fidelities(rho, d, sigma)
    problems = check_fidelities(dense_fidelities(estimate, d, sigma), exact, "MC estimate")
    purity = float(np.vdot(rho, rho).real)
    rms = math.sqrt(max(purity - family_norm2(exact, d, sigma), 0.0) / samples)
    if not distance <= MC_DISTANCE_FACTOR * rms:
        problems.append(f"Frobenius distance {distance:.4g} above {MC_DISTANCE_FACTOR} x {rms:.4g}")
    return problems


# ---------------------------------------------------------------------------
# verification runs


def check_verify(stdout: str, code: int, expected_checks: int) -> list[str]:
    lines = stdout.strip().splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    if passed != expected_checks or not lines or lines[-1] != f"{expected_checks}/{expected_checks} checks passed":
        problems.append(f"{passed} PASS lines, expected {expected_checks}")
    return problems


def parse_json(text: str, what: str):
    """Parsed JSON, or a problem list when the output is not JSON."""
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"{what} is not JSON: {exc}"]
