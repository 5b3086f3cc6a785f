"""The sample-batched Monte-Carlo twirl against the per-sample Kronecker
route it replaced: same draws bit for bit, same estimate within rounding,
and the convergence self-check that rests on it."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import Rng, formats, selfcheck, simplex
from invariant_states.cli import main
from invariant_states.operators import _haar_sample
from invariant_states.selfcheck import frobenius_distance, identity
from reference import haar


def _kronecker_twirl(rho, sigma, samples, rng):
    """The reference: per sample a fresh generator, one QR per factor,
    the dense Kronecker unitary V and the product V rho V^dag."""
    d, k = rho.d, len(sigma)
    acc = np.zeros_like(rho.mat)
    for s in range(samples):
        gen = rng.at(s).generator()
        us = []
        for _ in range(k):
            z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r)
            us.append(q * (diag / np.abs(diag)))
        ws = [u if bit == 0 else u.conj() for u, bit in zip(us, sigma)]
        v = reduce(np.kron, us + ws)
        acc += v @ rho.mat @ v.conj().T
    return acc / samples


def _inputs(d, k, seed):
    gen = np.random.default_rng(seed)
    side = d ** (2 * k)
    m = gen.standard_normal((side, side)) + 1j * gen.standard_normal((side, side))
    hermitian = m @ m.conj().T
    return {"hermitian": hermitian / np.trace(hermitian), "non-hermitian": m / np.trace(m)}


def _max_relative_deviation(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("d,k", [(d, k) for d in (2, 3) for k in (1, 2, 3)])
def test_matches_kronecker_reference(d, k):
    # side 729 takes one sample per batch, so two samples cross a batch boundary
    samples = 2 if d ** (2 * k) > 500 else 7
    for sigma in iv.all_vectors(k):
        for kind, mat in _inputs(d, k, 10 * d + k).items():
            rho = iv.Operator(d, 2 * k, mat)
            rng = Rng(31, 2**64 - 3)
            got = iv.mc_twirl(rho, sigma, samples, rng).mat
            want = _kronecker_twirl(rho, sigma, samples, rng)
            assert _max_relative_deviation(got, want) <= 1e-14, (sigma, kind)


def test_matches_kronecker_reference_across_batches():
    # side 256 takes 8 samples per batch: batches of 8, 8 and 4
    rho = iv.Operator(2, 8, _inputs(2, 4, 5)["non-hermitian"])
    got = iv.mc_twirl(rho, (0, 1, 1, 0), 20, Rng(4))
    assert _max_relative_deviation(got.mat, _kronecker_twirl(rho, (0, 1, 1, 0), 20, Rng(4))) <= 1e-14


@pytest.mark.parametrize("sigma", ["00", "01", "11"])
def test_cli_distance_equals_the_distance_to_the_synthesized_target(tmp_path, sigma):
    # the CLI subtracts the target's pattern entries from a copy of the
    # estimate; the printed digits are those of the dense subtraction
    state, est = tmp_path / "rho.qopb", tmp_path / "est.qopb"
    rho = iv.Operator(2, 4, _inputs(2, 2, 3)["hermitian"])
    state.write_bytes(formats.qopb_encode(rho))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["twirl", "--in", str(state), "--sigma", sigma, "--mc", "30", "--out", str(est)]) == 0
    estimate = formats.qopb_decode(est.read_bytes())
    target = iv.synthesize(iv.fidelities_of(rho, [int(c) for c in sigma]))
    assert json.loads(out.getvalue())["frobenius_distance"] == frobenius_distance(estimate, target)


def test_cli_distance_does_not_depend_on_the_blas_thread_count(tmp_path):
    """At side 729 a BLAS dot, as np.linalg.norm is, splits its sum over
    threads.  Under some OpenBLAS kernels (Haswell, Sandybridge) the
    estimate's matrix products move with the thread count too, so each
    child's distance is checked against the distance of its own estimate,
    computed in this process: a function of the estimate's bytes alone."""
    state = tmp_path / "rho.json"
    build = ["build", "--d", "3", "--K", "3", "--sigma", "011", "--vertex", "101", "--dense"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*build, "--out", str(state)]) == 0
    rho = formats.qopb_decode(state.with_suffix(".qopb").read_bytes())
    target = iv.synthesize(iv.fidelities_of(rho, (0, 1, 1)))
    argv = ["-m", "invariant_states", "twirl", "--in", str(state.with_suffix(".qopb")), "--sigma", "011", "--mc", "4"]
    env = dict(os.environ, PYTHONPATH=str(Path(iv.__file__).parents[1]))
    for threads in ("1", "2"):
        est = tmp_path / f"est{threads}.qopb"
        report = subprocess.run(
            [sys.executable, *argv, "--seed", "3", "--out", str(est)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        estimate = formats.qopb_decode(est.read_bytes())
        assert json.loads(report)["frobenius_distance"] == frobenius_distance(estimate, target), threads


def test_last_counter_is_checked_before_sampling():
    with pytest.raises(ValueError, match="counter must lie in"):
        iv.mc_twirl(identity(2, 2) / 4, (0,), 3, Rng(0, 2**128 - 2))


def test_each_sample_draws_the_normals_of_its_own_stream(monkeypatch):
    """5,000 samples whose counters cross a carry into the high 64-bit word:
    sample s draws exactly the normals that rng.at(s).generator() draws,
    in the reference's order (per factor, real part then imaginary part)."""
    seen = []

    def recording(normals):
        seen.append(normals.copy())
        return _haar_sample(normals)

    monkeypatch.setattr(simplex, "_haar_sample", recording)
    d, k, rng = 2, 2, Rng(77, 2**64 - 2_500)
    iv.mc_twirl(identity(d, 2 * k) / d ** (2 * k), (0, 1), 5_000, rng)
    drawn = np.concatenate(seen)
    assert drawn.shape == (5_000, k, 2, d, d)
    for s in range(5_000):
        gen = rng.at(s).generator()
        want = [gen.standard_normal((d, d)) for _ in range(2 * k)]
        assert np.array_equal(drawn[s].reshape(2 * k, d, d), want), s


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_haar_sample_matches_haar_unitary(d):
    rng = Rng(9, 123)
    normals = np.stack([rng.at(s).generator().standard_normal((2, d, d)) for s in range(60)])
    for stack in (normals, normals.reshape(20, 3, 2, d, d)):
        got = _haar_sample(stack).reshape(60, d, d)
        for s in range(60):
            assert np.array_equal(got[s], haar(d, rng.at(s))), s


def test_haar_unitary_keeps_its_stream():
    # the per-matrix rule before the stacked one: two (d, d) draws, QR, phase fix
    for d in (2, 3, 4):
        gen = Rng(12, 5).generator()
        z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        assert np.array_equal(haar(d, Rng(12, 5)), q * (diag / np.abs(diag)))


def _ratio(result):
    return float(re.search(r"error ratio N=1000/N=4000: ([0-9.]+)", result.detail).group(1))


def test_mc_convergence_passes_at_seed_21():
    # seed 21 read a ratio of 1.65 with 10 runs of separately drawn averages
    result = selfcheck.check_mc_convergence(seed=21)
    assert result.passed, result.detail


def test_mc_convergence_rejects_an_estimator_with_the_wrong_rate(monkeypatch):
    """An estimator that cycles over a fixed 100 samples stops improving
    beyond N=100, so its error ratio stays far below 2."""
    real = selfcheck.mc_twirl

    def cycling(rho, sigma, samples, rng):
        assert samples % 100 == 0
        return real(rho, sigma, 100, rng)  # the mean of the cycle equals the mean of its 100 samples

    monkeypatch.setattr(selfcheck, "mc_twirl", cycling)
    result = selfcheck.check_mc_convergence(seed=0)
    assert not result.passed
    assert _ratio(result) < 1.7
