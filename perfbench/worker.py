"""One workload in one fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --out RESULT.json [--setup-only] [--scale full|tiny]

``run.py`` starts this process with BLAS pinned through the environment,
so numpy is loaded with one BLAS thread.  The process builds its inputs
from the seed, warms up, and stamps ``ready`` (system-wide monotonic
clock) just before the first timed operation; with ``--setup-only`` it
stops there.  Otherwise it runs passes over the workload's fixed
operation set, one operation at a time (a closed loop with one client),
checks every output against the references in ``checks.py`` outside the
timed region, and writes end-to-end figures (``--trace 0``) or per-layer
figures (``--trace 1``) to RESULT.json.

Untraced runs make at least MIN_PASSES passes, and more while another
pass is expected to end within ``--seconds``.  Traced runs make one
untraced and one traced pass; the difference of their wall times is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench"
CHILD_TIMEOUT_S = 150.0
MIN_PASSES = 2

# cli-dense: (d, K) ladder of build --dense / twirl / check chains, the
# ceiling (matrix side 4096) last.  MC twirls are (d, K, samples) at mid
# sizes (side 64..729), three generated states per size, with sample
# counts that make each command take about as long as the others, so
# the latency tail (11th-slowest of 68 commands in two passes) falls
# inside that group.
# A pass takes about 22 s on a 2-vCPU VM, so MIN_PASSES fit in a run.
LADDER = {
    "full": ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (5, 2), (3, 3), (4, 3)),
    "tiny": ((2, 1), (2, 2), (3, 1)),
}
MC_TWIRLS = {
    "full": ((2, 3, 700), (3, 2, 650), (2, 4, 35), (3, 3, 2)) * 3,
    "tiny": ((2, 1, 50),),
}
MC_RANK = 4
# PASS lines of ``verify --level quick``, which each pass runs once
QUICK_CHECKS = 6

# criteria-sweep: descriptor-only points over K and d, sigma mixed.
# Dirichlet points per (K, d) cell, plus one extremal point per cell.
# With the 12 threshold points at K=1, about as many operations have
# K <= 2 as K >= 4, so the median operation sits in the middle of the 105
# K=3 operations, and the tail among the 21 K=7 ones; many distinct points
# there keep both from hinging on a few seed-drawn inputs.  A pass takes
# about 12 s on a 2-vCPU VM, so three fit in a 45 s run.
DIRICHLET = {
    "full": {1: 22, 2: 15, 3: 34, 4: 15, 5: 8, 6: 8, 7: 6},
    "tiny": {1: 7, 2: 7, 3: 3},
}
SWEEP_D = {"full": (2, 3, 5), "tiny": (2, 3)}
THRESHOLD_OFFSET = 1e-6


@dataclass
class Pass:
    """Latencies of one pass over the workload's fixed operation set."""

    op_s: list[float] = field(default_factory=list)  # operations counted in op_p50/op_tail
    wall_s: float = 0.0  # every timed operation of the pass
    ceiling_s: float = 0.0

    def add(self, latency: float, counted: bool = True, top: bool = False):
        if counted:
            self.op_s.append(latency)
        if top:
            self.ceiling_s += latency
        self.wall_s += latency


def bits_arg(bits) -> str:
    return "".join(str(int(b)) for b in bits)


class CliRunner:
    """Runs ``invariant_states`` CLI children one at a time and times them.

    Latency is parent wall time from spawn to reaping; peak RSS comes from
    the ``wait4`` rusage of each child.  With a tracer, children run under
    ``cli_child.py`` and their spans are merged into it.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None
        self.peak_rss_kib = 0
        self.children: list[dict] = []
        self.count = 0

    def run(self, argv: list[str]) -> tuple[int, str, float]:
        self.count += 1
        out_path = self.workdir / "stdout.txt"
        spans = self.workdir / f"spans-{self.count}.jsonl"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "invariant_states", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *argv]
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.workdir)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if self.tracer is not None and spans.exists():
            head = self.tracer.merge(spans, op=self.count)
            self.children.append({"import_ms": head["import_ms"], "spawn_ms": latency * 1e3 - head["main_ms"]})
            spans.unlink()
        return proc.returncode, out_path.read_text(), latency


# ---------------------------------------------------------------------------
# workloads


class CliDense:
    """build --dense -> twirl -> check chains up to the ceiling, MC twirls and
    the quick self-verification."""

    def __init__(self, seed: int, scale: str, workdir: Path, tally: checks.Tally):
        self.seed, self.scale, self.workdir, self.tally = seed, scale, workdir, tally
        self.runner = CliRunner(workdir)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.chains = []
        for d, k in LADDER[self.scale]:
            sigma = tuple(int(b) for b in rng.integers(0, 2, k))
            self.chains.append((d, k, sigma, rng.dirichlet(np.ones(2**k))))
        self.mc = []
        for i, (d, k, samples) in enumerate(MC_TWIRLS[self.scale]):
            sigma = tuple(int(b) for b in rng.integers(0, 2, k))
            side = d ** (2 * k)
            g = rng.standard_normal((side, MC_RANK)) + 1j * rng.standard_normal((side, MC_RANK))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            path = self.workdir / f"mc-{i}.qopb"
            path.write_bytes(checks.qopb_bytes(rho, d, 2 * k))
            self.mc.append((d, k, samples, sigma, int(rng.integers(2**31)), path))
        self.runner.run(["build", "--d", "2", "--K", "1", "--sigma", "0", "--vertex", "0"])

    def run_pass(self) -> Pass:
        p = Pass()
        p.add(self._verify())
        ceiling = LADDER[self.scale][-1]
        # MC twirls spread between the chains, so both kinds sample the whole pass
        n, m = len(self.mc), len(self.chains)
        for i, (d, k, sigma, fid) in enumerate(self.chains):
            top = (d, k) == ceiling
            for latency in self._chain(d, k, sigma, fid):
                p.add(latency, counted=not top, top=top)
            for args in self.mc[i * n // m : (i + 1) * n // m]:
                p.add(self._mc_twirl(*args))
        return p

    def _verify(self) -> float:
        code, out, latency = self.runner.run(["verify", "--level", "quick"])
        self.tally.record("verify --level quick", checks.check_verify(out, code, QUICK_CHECKS))
        return latency

    def _descriptor(self, path: Path, what: str):
        try:
            data = json.loads(path.read_text())
            return np.asarray(data["fidelities"], dtype=float), []
        except (OSError, ValueError, KeyError) as exc:
            return None, [f"{what} descriptor unreadable: {exc}"]

    def _chain(self, d, k, sigma, fid) -> list[float]:
        sig = bits_arg(sigma)
        state, twirled = self.workdir / f"state-{d}-{k}.json", self.workdir / f"twirl-{d}-{k}.json"
        matrix = state.with_suffix(".qopb")
        label = f"d={d},K={k},sigma={sig}"
        for stale in (state, matrix, twirled):
            stale.unlink(missing_ok=True)

        fid_arg = ",".join(repr(float(x)) for x in fid)
        code, _, t_build = self.runner.run(
            ["build", "--d", str(d), "--K", str(k), "--sigma", sig, "--fid", fid_arg, "--out", str(state), "--dense"]
        )
        got, problems = self._descriptor(state, "build")
        if got is not None:
            problems += checks.check_fidelities(got, fid, "build", atol=0.0)
        if code != 0 or not matrix.exists():
            problems.append(f"build exited {code}")
        self.tally.record(f"build {label}", problems)

        code, _, t_twirl = self.runner.run(["twirl", "--in", str(matrix), "--sigma", sig, "--out", str(twirled)])
        got, problems = self._descriptor(twirled, "twirl")
        if got is not None:
            problems += checks.check_fidelities(got, fid, "build->twirl round trip")
        if code != 0:
            problems.append(f"twirl exited {code}")
        self.tally.record(f"twirl {label}", problems)
        matrix.unlink(missing_ok=True)

        code, out, t_check = self.runner.run(["check", "--in", str(twirled), "--criterion", "ppt-all", "--strict"])
        verdict, problems = checks.parse_json(out, "check output")
        if got is None:
            problems.append("no twirled descriptor to check")
        else:
            problems += checks.check_exit_code(code, got, sigma, d)
            if verdict is not None:
                problems += checks.check_ppt_verdict(verdict, got, sigma, d)
        self.tally.record(f"check {label}", problems)
        return [t_build, t_twirl, t_check]

    def _mc_twirl(self, d, k, samples, sigma, mc_seed, path) -> float:
        estimate = self.workdir / f"mc-estimate-{d}-{k}.qopb"
        code, out, latency = self.runner.run(
            ["twirl", "--in", str(path), "--sigma", bits_arg(sigma), "--mc", str(samples),
             "--seed", str(mc_seed), "--out", str(estimate)]
        )
        report, problems = checks.parse_json(out, "MC report")
        if code != 0:
            problems.append(f"twirl --mc exited {code}")
        elif report is not None:
            try:
                rho, _, _ = checks.qopb_matrix(path.read_bytes())
                est, _, _ = checks.qopb_matrix(estimate.read_bytes())
                distance = float(report["frobenius_distance"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"MC output unreadable: {exc}")
            else:
                problems += checks.check_mc(est, rho, d, sigma, samples, distance)
        estimate.unlink(missing_ok=True)
        self.tally.record(f"twirl --mc d={d},K={k}", problems)
        return latency


@dataclass
class Point:
    kind: str  # dirichlet, extremal or threshold
    d: int
    sigma: tuple
    values: np.ndarray  # fidelities, or per-pair overlaps for extremal points
    pair: int  # pair traced out by reduce_pair
    expect: str | None = None  # known ppt-all outcome, where theory fixes it


class CriteriaSweep:
    """Descriptor-only criteria, transfer and serialization calls, in process."""

    def __init__(self, seed: int, scale: str, workdir: Path, tally: checks.Tally):
        self.seed, self.scale, self.tally = seed, scale, tally

    def setup(self):
        # attribute lookups on the modules at call time, so traced runs see the wrappers
        from invariant_states import formats, simplex

        self.simplex, self.formats = simplex, formats
        rng = np.random.default_rng(self.seed)
        self.points = []
        for k, dirichlet in DIRICHLET[self.scale].items():
            for d in SWEEP_D[self.scale]:
                kinds = ["dirichlet"] * dirichlet + ["extremal"]
                for kind in kinds:
                    sigma = tuple(int(b) for b in rng.integers(0, 2, k))
                    pair = 1 + int(rng.integers(k))
                    if kind == "dirichlet":
                        self.points.append(Point(kind, d, sigma, rng.dirichlet(np.ones(2**k)), pair))
                    else:
                        self.points.append(Point(kind, d, sigma, rng.uniform(0.0, 1.0, k), pair, "satisfied"))
        for d in SWEEP_D[self.scale]:
            for family, threshold in ((0, 0.5), (1, 1.0 / d)):
                for sign, expect in ((-1, "satisfied"), (1, "violated")):
                    q = threshold + sign * THRESHOLD_OFFSET
                    self.points.append(Point("threshold", d, (family,), np.array([1.0 - q, q]), 1, expect))
        self.top = max(DIRICHLET[self.scale])
        for point in self.points[:6]:
            self._op(point)
        # spread every K over the whole pass, so host speed drifts hit all alike
        self.points = [self.points[i] for i in rng.permutation(len(self.points))]

    def _op(self, point: Point):
        simplex, formats = self.simplex, self.formats
        if point.kind == "extremal":
            fid = simplex.extremal_fidelities(point.sigma, point.values, point.d)
        else:
            fid = point.values
        desc = simplex.StateDescriptor(point.d, point.sigma, fid)
        transforms = [simplex.transform_fidelities(desc, mu) for mu in product((0, 1), repeat=desc.K)]
        ppt = json.loads(formats.dumps_verdict(simplex.check_ppt_all(desc)))
        poly = json.loads(formats.dumps_verdict(simplex.check_polytope(desc)))
        reduced = simplex.reduce_pair(desc, point.pair).fidelities if desc.K > 1 else None
        back = formats.parse_descriptor(formats.dumps_descriptor(desc))
        return fid, transforms, ppt, poly, reduced, back

    def run_pass(self, tracer: tracing.Tracer | None = None) -> Pass:
        p = Pass()
        for i, point in enumerate(self.points):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            out = self._op(point)
            p.add(time.perf_counter() - start, top=len(point.sigma) == self.top)
            self.tally.record(f"{point.kind} d={point.d},sigma={bits_arg(point.sigma)}", self.check(point, out))
        return p

    @staticmethod
    def check(point: Point, out) -> list[str]:
        fid, transforms, ppt, poly, reduced, back = out
        d, sigma = point.d, point.sigma
        problems = []
        if point.kind == "extremal":
            problems += checks.check_fidelities(fid, checks.extremal_fidelities(sigma, point.values, d), "extremal", checks.PPT_ATOL)
        problems += checks.check_transforms(transforms, fid, sigma, d)
        problems += checks.check_ppt_verdict(ppt, fid, sigma, d)
        problems += checks.check_polytope_verdict(poly, fid, sigma, d)
        if reduced is not None:
            problems += checks.check_reduction(reduced, fid, sigma, point.pair)
        if (back.d, tuple(back.sigma)) != (d, sigma):
            problems.append("descriptor JSON round trip changed d or sigma")
        problems += checks.check_fidelities(back.fidelities, fid, "descriptor JSON round trip", atol=0.0)
        if point.expect is not None and ppt.get("outcome") != point.expect:
            problems.append(f"ppt-all {ppt.get('outcome')!r}, theory says {point.expect!r}")
        return problems


WORKLOADS = {"cli-dense": CliDense, "criteria-sweep": CriteriaSweep}


# ---------------------------------------------------------------------------
# measurement


def tail(values: list[float]) -> tuple[float, float]:
    """Highest sample with at least 10 samples above it, and its percentile.

    With 10 samples or fewer no such sample exists; the maximum is
    reported as the 100th percentile.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def peak_rss_kib(runner: CliRunner | None) -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, runner.peak_rss_kib if runner is not None else 0)


def measure(workload, seconds: float, trace_path: Path | None) -> dict:
    runner = getattr(workload, "runner", None)
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(workload.run_pass())
        now = time.monotonic()
        if trace_path or (len(passes) >= MIN_PASSES and now - start + (now - began) > seconds):
            break
    ops = [t for p in passes for t in p.op_s]
    tail_s, tail_pct = tail(ops)
    result = {
        "metrics": {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ceiling_chain_s": statistics.median(p.ceiling_s for p in passes),
            "peak_rss_mib": peak_rss_kib(runner) / 1024.0,
        },
        "op_tail": {"percentile": round(tail_pct, 2), "samples": len(ops)},
        "passes": len(passes),
    }
    if trace_path:
        tracer = tracing.Tracer()
        if runner is not None:
            runner.tracer = tracer
            traced = workload.run_pass()
        else:
            tracing.install(tracer)
            traced = workload.run_pass(tracer)
        overhead = traced.wall_s - passes[0].wall_s
        result["layers"], result["absent"] = tracing.layer_metrics(
            tracer, runner.children if runner is not None else [], overhead
        )
        result["trace_file"] = str(trace_path)
        tracer.dump(trace_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally = checks.Tally()
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir, tally)
        workload.setup()
        result = {"ready": time.monotonic()}
        if not args.setup_only:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
            result.update(measure(workload, args.seconds, trace_path))
            result.update(
                attempted=tally.attempted, failed=tally.failed, fail_frac=tally.fail_frac,
                problems=tally.problems, env=environment(),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
