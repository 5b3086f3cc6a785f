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
from invariant_states.bits import bits_str
from invariant_states.cli import main
from invariant_states.simplex import _moments

CASES = [(d, k, sigma) for d in (2, 3) for k in (1, 2, 3) for sigma in iv.all_vectors(k)]


def _ids(case):
    d, k, sigma = case
    return f"d{d}-K{k}-{bits_str(sigma)}"


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
    gen = np.random.default_rng(side + int(bits_str(sigma), 2))
    g = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    rho = g @ g.conj().T
    blob = formats.qopb_encode(iv.Operator(d, 2 * k, rho / np.trace(rho).real))
    path = tmp_path / "rho.qopb"
    path.write_bytes(blob)
    code, out = _cli("twirl", "--in", path, "--sigma", bits_str(sigma))
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
        code, _ = _cli("build", "--d", d, "--K", k, "--sigma", bits_str(sigma), "--fid", fid_arg,
                       "--out", tmp_path / "s.json", "--dense")
        assert code == 0
        assert matrix.read_bytes() == formats.qopb_encode(iv.synthesize(desc))


# the CLI, printing its rchar (bytes read, from /proc/self/io) when it
# exits, or -1 where that file does not exist
_CLI_REPORTING_RCHAR = """
import atexit, os, runpy
def report():
    io = "/proc/self/io"
    print(dict(line.split(": ") for line in open(io).read().splitlines())["rchar"] if os.path.exists(io) else -1)
atexit.register(report)
runpy.run_module("invariant_states", run_name="__main__")
"""

_PEAK_RSS = """
import json, os, subprocess, sys
for argv in json.loads(sys.argv[2]):
    child = subprocess.Popen([sys.executable, "-c", sys.argv[1], *argv], stdout=subprocess.PIPE, text=True)
    rchar = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, rchar.strip())
"""


def test_ceiling_build_and_twirl_hold_no_dense_matrix(tmp_path):
    """At d=4, K=3 one dense copy of the state is 256 MiB; each streamed
    child peaks far below it and reads far less than the 256 MiB file.

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
    report = subprocess.run([sys.executable, "-c", _PEAK_RSS, _CLI_REPORTING_RCHAR, json.dumps(commands)], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    lines = report.stdout.splitlines()
    assert len(lines) == len(commands)
    for line in lines:
        code, peak_kib, rchar = map(int, line.split())
        assert code == 0 and peak_kib < 128 * 1024
        assert rchar < 64 * 1024 * 1024 or not Path("/proc/self/io").exists()
    twirled = formats.parse_descriptor((tmp_path / "t.json").read_text())
    np.testing.assert_allclose(twirled.fidelities, [(j + 1) / 36 for j in range(8)], atol=1e-12)


def test_ceiling_mc_twirl_holds_four_dense_matrices(tmp_path):
    """At d=4, K=3 ``twirl --mc 1`` holds the state, the sum and the two
    working arrays of one sample (256 MiB each), but no Kronecker unitary
    and no synthesized target (1,581 MiB before)."""
    fid = ",".join(repr((j + 1) / 36) for j in range(8))
    state = tmp_path / "s.json"
    commands = [
        ["build", "--d", "4", "--K", "3", "--sigma", "110", "--fid", fid, "--out", str(state), "--dense"],
        ["twirl", "--in", str(state.with_suffix(".qopb")), "--sigma", "110", "--mc", "1", "--out",
         str(tmp_path / "e.qopb")],
    ]
    cli = "import runpy; runpy.run_module('invariant_states', run_name='__main__')"
    env = dict(os.environ, PYTHONPATH=str(Path(iv.__file__).parents[1]), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    report = subprocess.run([sys.executable, "-c", _PEAK_RSS, cli, json.dumps(commands)], env=env,
                            capture_output=True, text=True, check=True, timeout=300)
    build, twirl = report.stdout.splitlines()
    assert build.split()[0] == "0"
    code, peak_kib, printed = twirl.split(maxsplit=2)
    assert code == "0" and int(peak_kib) < 1200 * 1024
    # the built state is invariant, so every sample leaves it unchanged
    assert json.loads(printed)["frobenius_distance"] < 1e-12


def test_take_reports_a_file_that_shrank(tmp_path):
    path = tmp_path / "s.qopb"
    path.write_bytes(formats.qopb_encode(iv.synthesize(iv.StateDescriptor(2, (0,), [0.5, 0.5]))))
    with formats.qopb_entries(path) as (_, _, take):
        os.truncate(path, 13 + 16 * 8)
        with pytest.raises(ValueError, match="^QOPB file shrank while it was read$"):
            take(np.arange(16))


def test_failed_entry_write_removes_the_file(tmp_path, monkeypatch):
    def disk_full(fd, data, offset):
        raise OSError(28, "No space left on device")

    path = tmp_path / "s.qopb"
    path.write_bytes(b"older contents")
    monkeypatch.setattr(os, "pwrite", disk_full)
    with pytest.raises(OSError, match="No space left on device"):
        formats.qopb_write_entries(path, 2, 2, np.array([0, 5]), np.array([0.5, 0.5]))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (2, 5)])
def test_gathered_trace_is_bitwise_np_trace(d, k):
    """The unit-trace check sums the gathered diagonal as np.trace does."""
    side = d ** (2 * k)
    gen = np.random.default_rng(side)
    mat = gen.standard_normal((side, side)) * 10.0 ** gen.uniform(-8, 8, (side, side)) + 1j
    rho = iv.Operator(d, 2 * k, mat)
    for sigma in ((0,) * k, (1,) * k):
        trace, _ = _moments(rho.mat.reshape(-1).take, d, sigma)
        assert trace == complex(np.trace(mat))


@pytest.mark.parametrize("d, k, sigma", [(2, 1, (1,)), (2, 2, (0, 1)), (3, 2, (1, 0))])
def test_mc_twirl_file_is_qopb_encode_of_the_estimate(tmp_path, d, k, sigma):
    """``twirl --mc`` writes the header and then the estimate's buffer: the
    file holds exactly the bytes of qopb_encode(mc_twirl(...))."""
    side = d ** (2 * k)
    gen = np.random.default_rng(side)
    g = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    rho = iv.Operator(d, 2 * k, g @ g.conj().T / np.trace(g @ g.conj().T).real)
    path, out = tmp_path / "rho.qopb", tmp_path / "e.qopb"
    path.write_bytes(formats.qopb_encode(rho))
    code, _ = _cli("twirl", "--in", path, "--sigma", bits_str(sigma), "--mc", 3, "--seed", 5, "--out", out)
    assert code == 0
    assert out.read_bytes() == formats.qopb_encode(iv.mc_twirl(rho, sigma, 3, iv.Rng(5)))


def test_failed_matrix_write_removes_the_file(tmp_path, monkeypatch):
    """A disk that fills up after the header leaves no file behind, both
    for :func:`formats.qopb_write` and for ``twirl --mc``."""
    pwrite = os.pwrite

    def full_after_header(fd, data, offset):
        if offset > 0:
            raise OSError(28, "No space left on device")
        return pwrite(fd, data, offset)

    rho = iv.synthesize(iv.StateDescriptor(2, (0,), [0.5, 0.5]))
    path = tmp_path / "rho.qopb"
    path.write_bytes(formats.qopb_encode(rho))
    monkeypatch.setattr(os, "pwrite", full_after_header)
    out = tmp_path / "e.qopb"
    out.write_bytes(b"older contents")
    with pytest.raises(OSError, match="No space left on device"):
        formats.qopb_write(out, rho)
    assert sorted(tmp_path.iterdir()) == [path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, printed = _cli("twirl", "--in", path, "--sigma", "0", "--mc", 2, "--out", out)
    assert (code, printed) == (2, "")
    assert err.getvalue() == "error: [Errno 28] No space left on device\n"
    assert sorted(tmp_path.iterdir()) == [path]
