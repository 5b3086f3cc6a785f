"""Tests of the benchmark itself: tiny smoke runs and the output checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

from invariant_states import Operator, Rng, fidelities_of, formats, mc_twirl, simplex  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-dense", "criteria-sweep"])
def test_tiny_smoke_run(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [n for n, _ in (tracing.per_layer_names() if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if trace:
        assert details["absent"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["env"]["blas_threads"] == "1"


def test_missing_sources_fail_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "criteria-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_deadline_stops_workers_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 0.5)
    code = run.main(["--workload", "cli-dense", "--seed", "1", "--seconds", "30", "--trace", "0"])
    assert code != 0 and capsys.readouterr().out == ""


def _sweep_output(kind="dirichlet", k=3, d=3, seed=0):
    sweep = worker.CriteriaSweep(seed, "tiny", HERE, checks.Tally())
    sweep.setup()
    for point in sweep.points:
        if point.kind == kind and len(point.sigma) == k and point.d == d:
            out = list(sweep._op(point))
            if kind != "dirichlet" or out[2]["failures"]:
                return point, out
    raise AssertionError("no matching point")


def test_sweep_checks_pass_on_library_output():
    for kind in ("dirichlet", "extremal"):
        point, out = _sweep_output(kind)
        assert worker.CriteriaSweep.check(point, out) == []


def test_wrong_verdict_is_counted():
    point, out = _sweep_output()
    tally = checks.Tally()
    tally.record("right", worker.CriteriaSweep.check(point, out))
    ppt = json.loads(json.dumps(out[2]))
    ppt["failures"] = ppt["failures"][1:]
    tally.record("dropped ppt failure", worker.CriteriaSweep.check(point, out[:2] + [ppt] + out[3:]))
    poly = dict(out[3], outcome="satisfied" if out[3]["outcome"] == "violated" else "violated")
    tally.record("flipped polytope outcome", worker.CriteriaSweep.check(point, out[:3] + [poly] + out[4:]))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.fail_frac == pytest.approx(2 / 3)


def test_wrong_fidelities_are_counted():
    point, out = _sweep_output()
    fid = point.values
    tally = checks.Tally()
    bent = fid + np.array([1e-9, -1e-9] + [0.0] * (fid.size - 2))
    tally.record("transform", checks.check_transforms([t + 1e-9 for t in out[1]], fid, point.sigma, point.d))
    tally.record("round trip", checks.check_fidelities(bent, fid, "round trip"))
    tally.record("reduction", checks.check_reduction(out[4][::-1], fid, point.sigma, point.pair))
    assert tally.failed == 3 and tally.fail_frac == 1.0


def test_wrong_exit_code_is_counted():
    violated = np.array([0.2, 0.8])  # antisymmetric weight above 1/2
    assert checks.check_exit_code(1, violated, (0,), 3) == []
    tally = checks.Tally()
    tally.record("exit", checks.check_exit_code(0, violated, (0,), 3))
    tally.record("exit", checks.check_exit_code(1, np.array([0.8, 0.2]), (0,), 3))
    assert tally.failed == 2


def test_wrong_verify_report_is_counted():
    good = "".join(f"PASS check-{i}\n" for i in range(6)) + "6/6 checks passed\n"
    assert checks.check_verify(good, 0, 6) == []
    assert checks.check_verify(good.replace("PASS check-3", "FAIL check-3").replace("6/6", "5/6"), 1, 6)


def _random_state(d, k, seed=0):
    g = np.random.default_rng(seed)
    side = d ** (2 * k)
    m = g.standard_normal((side, 3)) + 1j * g.standard_normal((side, 3))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_mc_check_accepts_library_and_rejects_wrong_estimate():
    d, sigma, n = 2, (0, 1), 64
    rho = Operator(d, 4, _random_state(d, 2))
    est = mc_twirl(rho, sigma, n, Rng(5)).mat
    exact = fidelities_of(rho, sigma)
    dist = float(np.linalg.norm(est - simplex.synthesize(exact).mat))
    assert checks.check_mc(est, rho.mat, d, sigma, n, dist) == []
    assert checks.check_mc(rho.mat, rho.mat, d, sigma, n, float(np.linalg.norm(rho.mat - simplex.synthesize(exact).mat)))
    skewed = est + 1e-6 * np.eye(16)
    assert checks.check_mc(skewed, rho.mat, d, sigma, n, dist)


def test_references_match_library():
    for d, k in ((2, 2), (3, 1), (2, 3)):
        for sigma in ((0,) * k, (1,) * k, tuple(i % 2 for i in range(k))):
            rho = Operator(d, 2 * k, _random_state(d, k, seed=d + k))
            fid = fidelities_of(rho, sigma).fidelities
            assert np.allclose(checks.dense_fidelities(rho.mat, d, sigma), fid, atol=1e-12)
            ext = checks.extremal_fidelities(sigma, np.linspace(0.1, 0.9, k), d)
            assert np.allclose(ext, simplex.extremal_fidelities(sigma, np.linspace(0.1, 0.9, k), d), atol=1e-15)
    data = formats.qopb_encode(rho)
    assert checks.qopb_bytes(rho.mat, rho.d, rho.n) == data
    assert np.array_equal(checks.qopb_matrix(data)[0], rho.mat)


def test_absent_names_are_reported_not_fatal():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import invariant_states.operators as o, invariant_states.simplex as s\n"
        "del o._haar_sample, s._haar_sample\n"
        "import tracing; t = tracing.Tracer(); tracing.install(t)\n"
        "values, absent = tracing.layer_metrics(t, [], 0.0)\n"
        "print(' '.join(absent))\n"
    ) % (str(HERE), str(HERE.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    assert "operators.haar_sample.calls" in out and "operators.haar_sample.self_ms" in out
    assert "simplex.pt_matrix.calls" not in out
