"""Benchmark entry point.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-dense, criteria-sweep (see README.md).  Every
workload runs in fresh ``worker.py`` processes with BLAS pinned to one
thread through the environment, so numpy never starts a thread pool and
peak RSS belongs to that workload alone.  Set-up is measured in
SETUP_RUNS fresh processes (the last one goes on to measure) and
reported as their median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it carries the details: environment, tail percentile and
sample count, ``fail_frac``, absent layer names and check problems.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 9
RUN_DEADLINE_S = 170.0
BLAS_THREADS = "1"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ceiling_chain_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(args, out: Path, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its set-up time and its result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out), "--scale", args.scale,
    ]
    if setup_only:
        cmd.append("--setup-only")
    out.unlink(missing_ok=True)
    spawned = time.monotonic()
    # own process group, so a timeout also stops the CLI children it started
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not out.exists():
        raise RuntimeError(f"worker exited {code} without a result")
    result = json.loads(out.read_text())
    out.unlink()
    return result["ready"] - spawned, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="invariant-states benchmark")
    parser.add_argument("--workload", required=True, choices=("cli-dense", "criteria-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invariant_states" / "__init__.py").is_file():
        print(f"error: no invariant_states sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{os.getpid()}.json"
    try:
        setups = [run_worker(args, out, True, deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, result = run_worker(args, out, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    if args.trace:
        from tracing import per_layer_names

        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in per_layer_names()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_runs_s": setups,
        "passes": result["passes"],
        "op_tail": result["op_tail"],
        "fail_frac": result["fail_frac"],
        "problems": result["problems"],
        "env": result["env"],
    }
    if args.trace:
        details.update(absent=result["absent"], trace_file=result["trace_file"], untraced=result["metrics"])
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
