"""Command-line front end: build, twirl, check, reduce, verify.

Descriptors and verdicts travel as canonical JSON, dense matrices as
QOPB blobs.  Exit codes: 0 on success, 1 when a checked criterion is
violated under --strict or a verification run fails, 2 on usage or
input-format errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import formats
from .bits import as_bits, parse_bits
from .operators import Rng, _side
from .selfcheck import run_checks
from .simplex import (
    StateDescriptor,
    _check_bisep,
    _fidelities,
    _scatter,
    check_polytope,
    check_ppt,
    check_ppt_all,
    fidelities_of,
    mc_twirl,
    reduce_mixed_pair,
    reduce_pair,
)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_descriptor(path: str) -> StateDescriptor:
    return formats.parse_descriptor(Path(path).read_text())


def _cmd_build(args) -> int:
    sigma = as_bits(parse_bits(args.sigma), args.K, "--sigma")
    if args.fid is not None:
        fid = np.array([float(x) for x in args.fid.split(",")])
    else:
        as_bits(parse_bits(args.vertex), args.K, "--vertex")
        fid = np.zeros(_side(2, args.K))  # 2^K entries, under the scale rule
        fid[int(args.vertex, 2)] = 1.0
    desc = StateDescriptor(args.d, sigma, fid)
    if args.dense:
        if args.out is None:
            raise ValueError("--dense requires --out to derive the matrix path")
        matrix = Path(args.out).with_suffix(".qopb")
        if matrix == Path(args.out):
            raise ValueError(f"--dense writes the matrix to {matrix}, so --out must not end in .qopb")
        # the matrix first, so that a failed build leaves no file behind
        formats.qopb_write_entries(matrix, desc.d, 2 * desc.K, *_scatter(desc))
    try:
        _write_text(args.out, formats.dumps_descriptor(desc))
    except OSError:
        if args.dense:
            matrix.unlink()
        raise
    return 0


def _cmd_twirl(args) -> int:
    if args.mc is None:
        with formats.qopb_entries(args.inp) as (d, n, take):
            desc = _fidelities(take, d, n, parse_bits(args.sigma))
        _write_text(args.out, formats.dumps_descriptor(desc))
        return 0
    if args.out is None:
        raise ValueError("--mc requires --out for the averaged matrix")
    rho = formats.qopb_decode(Path(args.inp).read_bytes())
    sigma = parse_bits(args.sigma)
    desc = fidelities_of(rho, sigma)
    estimate = mc_twirl(rho, sigma, args.mc, Rng(args.seed))
    formats.qopb_write(args.out, estimate)
    # the distance to synthesize(desc), whose nonzero entries _scatter lists,
    # on one copy of the estimate
    positions, values = _scatter(desc)
    difference = estimate.mat.copy()
    difference.reshape(-1)[positions] -= values
    distance = float(np.linalg.norm(difference))
    report = {"samples": args.mc, "seed": args.seed, "frobenius_distance": distance}
    sys.stdout.write(formats.canonical_json(report) + "\n")
    return 0


def _cmd_check(args) -> int:
    desc = _read_descriptor(args.inp)
    name = args.criterion
    if name == "polytope":
        verdict = check_polytope(desc)
    elif name == "ppt-all":
        verdict = check_ppt_all(desc)
    elif name == "bisep":
        verdict = _check_bisep(desc)
    elif name.startswith("ppt:"):
        verdict = check_ppt(desc, parse_bits(name[4:]))
    else:
        raise ValueError(
            f"unknown criterion {name!r}; use ppt:<bits>, ppt-all, polytope or bisep"
        )
    sys.stdout.write(formats.dumps_verdict(verdict))
    if args.strict and not verdict.satisfied:
        return 1
    return 0


def _cmd_reduce(args) -> int:
    desc = _read_descriptor(args.inp)
    if args.pair is not None:
        reduced = reduce_pair(desc, args.pair)
    else:
        parts = args.mixed.split(",")
        if len(parts) != 2:
            raise ValueError(f"--mixed expects 'i,j', got {args.mixed!r}")
        reduced = reduce_mixed_pair(desc, int(parts[0]), int(parts[1]))
    _write_text(args.out, formats.dumps_descriptor(reduced))
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(level=args.level, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}"
        if r.detail:
            line += f": {r.detail}"
        sys.stdout.write(line + "\n")
    passed = sum(r.passed for r in results)
    sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invstates",
        description="Locally invariant multi-pair qudit states: construction, "
        "twirling, separability criteria, reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a state descriptor (and optionally its dense matrix)")
    p.add_argument("--d", type=int, required=True, help="local dimension")
    p.add_argument("--K", type=int, required=True, help="number of pairs")
    p.add_argument("--sigma", required=True, help="per-pair family bits, e.g. 01")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fid", help="comma-separated fidelities of length 2^K")
    g.add_argument("--vertex", help="bit label of a simplex vertex, e.g. 11")
    p.add_argument("--out", help="descriptor path (default: stdout)")
    p.add_argument(
        "--dense",
        action="store_true",
        help="also write the matrix to <out> with suffix .qopb, entry by entry without "
        "holding it (needs an --out that does not end in .qopb)",
    )
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("twirl", help="project a dense state onto an invariant family")
    p.add_argument("--in", dest="inp", required=True, help="input matrix (QOPB)")
    p.add_argument("--sigma", required=True, help="family bits")
    mc_help = "exact, which reads and checks only the entries its moments use; --mc reads and checks every entry"
    p.add_argument("--mc", type=int, help=f"Monte-Carlo sample count (default: {mc_help})")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    p.add_argument("--out", help="output path (descriptor JSON, or QOPB with --mc)")
    p.set_defaults(handler=_cmd_twirl)

    p = sub.add_parser("check", help="evaluate a separability criterion on a descriptor")
    p.add_argument("--in", dest="inp", required=True, help="descriptor path")
    p.add_argument(
        "--criterion", required=True, help="ppt:<bits> | ppt-all | polytope | bisep"
    )
    p.add_argument("--strict", action="store_true", help="exit 1 when violated")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("reduce", help="trace out a pair (or a mixed pair) of a descriptor")
    p.add_argument("--in", dest="inp", required=True, help="descriptor path")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pair", type=int, help="matched pair index to trace out")
    g.add_argument("--mixed", help="mixed pair 'i,j': first member of i, second of j")
    p.add_argument("--out", help="output descriptor path (default: stdout)")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
