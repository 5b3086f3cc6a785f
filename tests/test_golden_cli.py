"""CLI output pinned byte for byte by committed sha256 digests.

Each case runs the CLI in process on fixed inputs and hashes its exit
code, its stdout and the bytes of every file it writes.  The digests in
``golden_cli.json`` pin the output of ``verify --level quick``, of
``check`` and ``reduce`` on 42 descriptors (K = 1..7, d in {2, 3, 5})
and of ``build --dense`` -> ``twirl`` chains.  Printed values come
through BLAS products, so a different BLAS kernel may move last digits.

Regenerate the digests only for an intended output change, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

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
    return out


def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = golden_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"CLI output changed for {len(changed)} cases: {changed[:10]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
