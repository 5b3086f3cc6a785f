"""CLI output pinned byte for byte by committed sha256 digests.

Each case runs the CLI in process on fixed inputs and hashes its exit
code, its stdout and the bytes of every file it writes.  The digests in
``golden_cli.json`` pin the output of ``verify --level quick``, of
``check`` and ``reduce`` on 42 descriptors (K = 1..7, d in {2, 3, 5}),
of the ``--strict`` exit codes, of ``build --vertex`` to stdout and of
``build --dense`` -> ``twirl`` chains.  Every pinned value comes from
elementwise arithmetic, never from a BLAS product, so the digests hold
under every BLAS kernel and thread count; one test below forces two
OpenBLAS kernels.  The digests also pin the installed package: run from
outside the source tree, the tests use whichever ``invariant_states``
the interpreter imports, and the children they start import the same.

Regenerate the digests only for an intended output change, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import invariant_states
from invariant_states.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

DENSE_CHAINS = [(2, 1, "1"), (3, 1, "0"), (2, 2, "01"), (2, 3, "101"), (3, 3, "011"), (4, 3, "110")]


def _kron(factors):
    out = [1.0]
    for pair in factors:
        out = [x * y for x in out for y in pair]
    return out


def _descriptors():
    """42 descriptors: every (K, d) twice, cycling through peaked random,
    flat random, vertex and extremal product points."""
    rng = random.Random(20061)
    out = []
    for i in range(42):
        k, d = 1 + i % 7, (2, 3, 5)[i % 3]
        sigma = [rng.randrange(2) for _ in range(k)]
        kind = i % 4
        if kind == 0:
            f = [rng.random() ** 6 for _ in range(2**k)]
        elif kind == 1:
            f = [rng.random() for _ in range(2**k)]
        elif kind == 2:
            f = [0.0] * 2**k
            f[rng.randrange(2**k)] = 1.0
        else:
            a = [rng.random() for _ in range(k)]
            pairs = [(0.5 + x / 2, 0.5 - x / 2) if s == 0 else (1 - x / d, x / d) for s, x in zip(sigma, a)]
            f = _kron(pairs)
        total = sum(f)
        f = [x / total for x in f]
        mu = "".join(str(rng.randrange(2)) for _ in range(k))
        pair = 1 + rng.randrange(k)
        mixed = rng.sample(range(1, k + 1), 2) if k >= 2 else None
        text = json.dumps({"version": 1, "d": d, "K": k, "sigma": sigma, "fidelities": f})
        out.append((f"d{d}-K{k}-{i}", text, mu, pair, mixed))
    return out


def _run(*argv, files=()):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    digest = hashlib.sha256(f"{code}\n{buf.getvalue()}".encode())
    for path in files:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def golden_digests(workdir: Path) -> dict:
    out = {"verify-quick": _run("verify", "--level", "quick")}
    for name, text, mu, pair, mixed in _descriptors():
        path = workdir / f"{name}.json"
        path.write_text(text)
        for criterion in ("ppt-all", "bisep", "polytope", f"ppt:{mu}"):
            key = f"check-{criterion.split(':')[0]}-{name}"
            out[key] = _run("check", "--in", path, "--criterion", criterion)
        if mixed is not None:
            out[f"reduce-pair-{name}"] = _run("reduce", "--in", path, "--pair", pair)
            out[f"reduce-mixed-{name}"] = _run("reduce", "--in", path, "--mixed", f"{mixed[0]},{mixed[1]}")
    for d, k, sigma in DENSE_CHAINS:
        fid = ",".join(str((j + 1) / (2**k * (2**k + 1) / 2)) for j in range(2**k))
        path = workdir / f"dense-d{d}-K{k}.json"
        out[f"build-dense-d{d}-K{k}"] = _run(
            "build", "--d", d, "--K", k, "--sigma", sigma, "--fid", fid, "--out", path, "--dense",
            files=(path, path.with_suffix(".qopb")),
        )
        out[f"twirl-d{d}-K{k}"] = _run("twirl", "--in", path.with_suffix(".qopb"), "--sigma", sigma)
    out["build-vertex-d3-K3"] = _run("build", "--d", 3, "--K", 3, "--sigma", "011", "--vertex", "101")
    # verify's criterion-disagreement point: the polytope holds and ppt:11 fails
    path = workdir / "strict.json"
    path.write_text(json.dumps({"version": 1, "d": 2, "K": 2, "sigma": [0, 0], "fidelities": [0.4, 0.3, 0.3, 0.0]}))
    for criterion, outcome in (("polytope", "satisfied"), ("ppt:11", "violated")):
        out[f"check-strict-{outcome}"] = _run("check", "--in", path, "--criterion", criterion, "--strict")
    return out


def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = golden_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"CLI output changed for {len(changed)} cases: {changed[:10]}"


# OpenBLAS kernels to force, the cpuinfo flags each needs, and the names
# OPENBLAS_VERBOSE=2 may report for it (it names the Prescott kernels Katmai)
FORCED_KERNELS = {"Prescott": ({"pni"}, {"Prescott", "Katmai"}), "Haswell": ({"avx2", "fma"}, {"Haswell"})}


def test_golden_digests_hold_under_forced_blas_kernels():
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("OpenBLAS kernels are forced by their x86-64 names")
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    flags = next((set(line.split(":", 1)[1].split()) for line in lines if line.startswith("flags")), set())
    # the children import the package that this process imported
    env = dict(os.environ, PYTHONPATH=str(Path(invariant_states.__file__).parents[1]), OPENBLAS_VERBOSE="2")
    children = {
        core: subprocess.Popen(
            [sys.executable, __file__],
            env=dict(env, OPENBLAS_CORETYPE=core),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for core, (needs, _) in FORCED_KERNELS.items()
        if needs <= flags
    }
    expected, forced = json.loads(GOLDEN.read_text()), []
    for core, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        if set(re.findall(r"^Core: (\S+)$", err, re.M)) & FORCED_KERNELS[core][1]:
            changed = [name for name, digest in json.loads(out).items() if expected.get(name) != digest]
            assert not changed, f"CLI output changed under the {core} kernel for {len(changed)} cases: {changed[:10]}"
            forced.append(core)
    if not forced:
        pytest.skip("no OpenBLAS kernel could be forced and reported on this machine")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
