"""The CLI's build --dense and exact twirl stream the QOPB file; the
in-memory route (synthesize, qopb_encode, qopb_decode, fidelities_of)
is the reference they must match byte for byte."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import formats
from invariant_states.cli import main
from invariant_states.simplex import _moments

CASES = [(d, k, sigma) for d in (2, 3) for k in (1, 2, 3) for sigma in iv.all_vectors(k)]


def _ids(case):
    d, k, sigma = case
    return f"d{d}-K{k}-{iv.bits_str(sigma)}"


def _cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_twirl_matches_in_memory_route(tmp_path, case):
    """A random non-invariant state twirls to the bytes of fidelities_of."""
    d, k, sigma = case
    side = d ** (2 * k)
    gen = np.random.default_rng(side + int(iv.bits_str(sigma), 2))
    g = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    rho = g @ g.conj().T
    blob = formats.qopb_encode(iv.Operator(d, 2 * k, rho / np.trace(rho).real))
    path = tmp_path / "rho.qopb"
    path.write_bytes(blob)
    code, out = _cli("twirl", "--in", path, "--sigma", iv.bits_str(sigma))
    assert code == 0
    assert out == formats.dumps_descriptor(iv.fidelities_of(formats.qopb_decode(blob), sigma))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_build_dense_matches_in_memory_route(tmp_path, case):
    """Dirichlet points, some with zero fidelities, build to the bytes of
    qopb_encode(synthesize(desc)), also over a larger file of garbage."""
    d, k, sigma = case
    gen = np.random.default_rng(7 * d + k)
    matrix = tmp_path / "s.qopb"
    matrix.write_bytes(gen.bytes(13 + 16 * (d ** (4 * k) + 1000)))
    for zeros in (0, 2**k // 2):
        fid = gen.dirichlet(np.ones(2**k))
        fid[gen.permutation(2**k)[:zeros]] = 0.0
        desc = iv.StateDescriptor(d, sigma, fid / fid.sum())
        fid_arg = ",".join(repr(float(x)) for x in desc.fidelities)
        code, _ = _cli("build", "--d", d, "--K", k, "--sigma", iv.bits_str(sigma), "--fid", fid_arg,
                       "--out", tmp_path / "s.json", "--dense")
        assert code == 0
        assert matrix.read_bytes() == formats.qopb_encode(iv.synthesize(desc))


_PEAK_RSS = """
import json, os, subprocess, sys
for argv in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, "-m", "invariant_states", *argv])
    _, status, usage = os.wait4(child.pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_ceiling_build_and_twirl_hold_no_dense_matrix(tmp_path):
    """At d=4, K=3 one dense copy of the state is 256 MiB; each streamed
    child peaks far below it.

    The children are started from a fresh interpreter: a child started
    straight from this process would report this process's own peak RSS,
    which Linux carries across exec into the child's ru_maxrss.
    """
    fid = ",".join(repr((j + 1) / 36) for j in range(8))
    state = tmp_path / "s.json"
    commands = [
        ["build", "--d", "4", "--K", "3", "--sigma", "110", "--fid", fid, "--out", str(state), "--dense"],
        ["twirl", "--in", str(state.with_suffix(".qopb")), "--sigma", "110", "--out", str(tmp_path / "t.json")],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(iv.__file__).parents[1]), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    report = subprocess.run([sys.executable, "-c", _PEAK_RSS, json.dumps(commands)], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    lines = report.stdout.splitlines()
    assert len(lines) == len(commands)
    for line in lines:
        code, peak_kib = map(int, line.split())
        assert code == 0 and peak_kib < 128 * 1024
    twirled = formats.parse_descriptor((tmp_path / "t.json").read_text())
    np.testing.assert_allclose(twirled.fidelities, [(j + 1) / 36 for j in range(8)], atol=1e-12)


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (2, 5)])
def test_gathered_trace_is_bitwise_np_trace(d, k):
    """The unit-trace check sums the gathered diagonal as np.trace does."""
    side = d ** (2 * k)
    gen = np.random.default_rng(side)
    mat = gen.standard_normal((side, side)) * 10.0 ** gen.uniform(-8, 8, (side, side)) + 1j
    rho = iv.Operator(d, 2 * k, mat)
    for sigma in ((0,) * k, (1,) * k):
        _, trace, _ = _moments(rho.mat.reshape(-1).take, d, sigma)
        assert trace == complex(np.trace(mat))
