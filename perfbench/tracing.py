"""Span tracing of the library's layers from outside the library.

:func:`install` wraps the library's functions by rebinding module
attributes (every ``invariant_states`` module that imported the function
by name gets the wrapper), so no library source changes.  A wrapped name
that the library no longer has is reported absent instead of failing.

Spans stay in memory as ``[name, start, end, parent, op]`` lists and are
written out once, at exit.  :func:`layer_metrics` turns spans and
counters into the per-layer metrics; ``self_ms`` is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, span name) of every wrapped library function
SPANNED = (
    ("operators", "Rng.generator", "operators.rng_generator"),
    ("operators", "_haar_sample", "operators.haar_sample"),
    ("operators", "partial_transpose", "operators.partial_transpose"),
    ("simplex", "synthesize", "simplex.synthesize"),
    ("simplex", "extract_fidelities", "simplex.extract_fidelities"),
    ("simplex", "mc_twirl", "simplex.mc_twirl"),
    ("simplex", "transform_fidelities", "simplex.transform_fidelities"),
    ("simplex", "pt_matrix", "simplex.pt_matrix"),
    ("simplex", "reduce_pair", "simplex.reduce_pair"),
    ("simplex", "extremal_fidelities", "simplex.extremal_fidelities"),
    ("simplex", "check_ppt", "simplex.check_ppt"),
    ("simplex", "check_ppt_all", "simplex.check_ppt_all"),
    ("simplex", "check_polytope", "simplex.check_polytope"),
    ("formats", "qopb_encode", "formats.qopb_encode"),
    ("formats", "qopb_decode", "formats.qopb_decode"),
    ("formats", "dumps_verdict", "formats.dumps_verdict"),
    ("formats", "dumps_descriptor", "formats.dumps_descriptor"),
    ("formats", "parse_descriptor", "formats.parse_descriptor"),
)

SELFCHECK_NAMES = (
    "transfer-inverse",
    "flip-partial-transpose",
    "trace-formulas",
    "pair-thresholds",
    "criterion-disagreement",
    "biseparable-construction",
)

MIB = 1024.0 * 1024.0


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.op = 0

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"counters": self.counters, "absent": sorted(self.absent), **extra}, fh)
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def merge(self, path, op: int):
        """Append the spans and counters a child process dumped, under operation ``op``."""
        with open(path) as fh:
            head = json.loads(fh.readline())
            offset = len(self.spans)
            for line in fh:
                name, start, end, parent, _ = json.loads(line)
                self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        for key, value in head.pop("counters").items():
            self.counters[key] += value
        self.absent.update(head.pop("absent"))
        return head


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind(owner, attr: str, original, replacement):
    """Point ``owner.attr`` and every library module's alias of it at ``replacement``."""
    setattr(owner, attr, replacement)
    for name, module in list(sys.modules.items()):
        if name == "invariant_states" or name.startswith("invariant_states."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def install(tracer: Tracer):
    """Wrap the library's layer functions; names it lacks are recorded absent."""
    mods = {
        m: importlib.import_module(f"invariant_states.{m}")
        for m in ("operators", "projectors", "simplex", "formats", "selfcheck", "cli")
    }
    c = tracer.counters
    after = {
        "simplex.mc_twirl": _count(c, "simplex.mc_twirl.samples", lambda a, kw, r: int(_arg(a, kw, 2, "samples"))),
        "simplex.check_ppt_all": _after_ppt_all(c),
        "formats.qopb_encode": _count(c, "formats.qopb_encode.bytes", lambda a, kw, r: len(r)),
        "formats.qopb_decode": _count(c, "formats.qopb_decode.bytes", lambda a, kw, r: len(_arg(a, kw, 0, "data"))),
        "formats.dumps_verdict": _count(c, "formats.dumps_verdict.bytes", lambda a, kw, r: len(r.encode())),
    }
    for module, path, name in SPANNED:
        try:
            owner, attr, original = _resolve(mods[module], path)
        except AttributeError:
            tracer.absent.add(name)
            continue
        _rebind(owner, attr, original, _spanned(tracer, name, original, after.get(name)))
    _install_projectors(tracer, mods["projectors"])
    _install_operator_bytes(tracer, mods["operators"])
    _install_selfcheck(tracer, mods["selfcheck"])


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _count(counters, key: str, amount):
    def after(args, kwargs, result):
        counters[key] += amount(args, kwargs, result)

    return after


def _after_ppt_all(counters):
    def after(args, kwargs, verdict):
        counters["simplex.check_ppt.useful"] += 2 ** _arg(args, kwargs, 0, "desc").K
        counters["simplex.ppt_failures"] += len(verdict.failures)

    return after


def _install_projectors(tracer: Tracer, projectors):
    name = "projectors.invariant_projector"
    try:
        owner, attr, public = _resolve(projectors, "invariant_projector")
    except AttributeError:
        tracer.absent.add(name)
        return
    try:
        cache_info = projectors._invariant_projector.cache_info
    except AttributeError:
        tracer.absent.update({"projectors.cache_misses", "projectors.cache_hit_ratio", "projectors.cache_mib"})
        cache_info = None
    c = tracer.counters

    @functools.wraps(public)
    def wrapper(*args, **kwargs):
        before = cache_info().misses if cache_info else 0
        index = tracer.begin(name)
        try:
            result = public(*args, **kwargs)
        finally:
            tracer.end(index)
        if cache_info and cache_info().misses > before:
            c["projectors.cache_misses"] += 1
            c["projectors.cache_bytes"] += result.mat.nbytes
        return result

    _rebind(owner, attr, public, wrapper)


def _install_operator_bytes(tracer: Tracer, operators):
    """Count side^2 * 16 B per Operator construction (computed, not measured)."""
    try:
        owner, attr, original = _resolve(operators, "Operator.__post_init__")
    except AttributeError:
        tracer.absent.add("operators.dense_mib")
        return
    c = tracer.counters

    def post_init(self):
        original(self)
        c["operators.dense_bytes"] += 16 * self.mat.shape[0] ** 2

    setattr(owner, attr, post_init)


def _install_selfcheck(tracer: Tracer, selfcheck):
    def wrap(check):
        @functools.wraps(check)
        def wrapper(*args, **kwargs):
            index = tracer.begin("selfcheck")
            try:
                result = check(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.spans[index][0] = f"selfcheck.{result.name}"
            return result

        return wrapper

    # cli-dense runs ``verify --level quick``, which runs QUICK_CHECKS only
    checks = getattr(selfcheck, "QUICK_CHECKS", None)
    if checks is None:
        tracer.absent.update(f"selfcheck.{n}.ms" for n in SELFCHECK_NAMES)
    else:
        selfcheck.QUICK_CHECKS = tuple(wrap(check) for check in checks)


# ---------------------------------------------------------------------------
# per-layer metrics


def _per_name(spans):
    durations = [(s[2] - s[1]) * 1e3 for s in spans]
    child = [0.0] * len(spans)
    for dur, s in zip(durations, spans):
        if s[3] >= 0:
            child[s[3]] += dur
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += durations[i]
        self_ms[s[0]] += durations[i] - child[i]
    return calls, total, self_ms


def _ppt_calls_in_ppt_all(spans) -> int:
    return sum(
        1 for s in spans if s[0] == "simplex.check_ppt" and s[3] >= 0 and spans[s[3]][0] == "simplex.check_ppt_all"
    )


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [
        ("operators.rng_generator.calls", "count"),
        ("operators.rng_generator.self_ms", "ms"),
        ("operators.haar_sample.calls", "count"),
        ("operators.haar_sample.self_ms", "ms"),
        ("operators.partial_transpose.self_ms", "ms"),
        ("operators.dense_mib", "MiB"),
        ("projectors.invariant_projector.calls", "count"),
        ("projectors.invariant_projector.self_ms", "ms"),
        ("projectors.cache_misses", "count"),
        ("projectors.cache_hit_ratio", "ratio"),
        ("projectors.cache_mib", "MiB"),
    ]
    for name in ("synthesize", "extract_fidelities"):
        out += [(f"simplex.{name}.calls", "count"), (f"simplex.{name}.self_ms", "ms")]
    out += [("simplex.mc_twirl.samples", "count"), ("simplex.mc_twirl.self_ms", "ms")]
    for name in ("transform_fidelities", "pt_matrix"):
        out += [(f"simplex.{name}.calls", "count"), (f"simplex.{name}.self_ms", "ms")]
    out += [
        ("simplex.reduce_pair.self_ms", "ms"),
        ("simplex.extremal_fidelities.self_ms", "ms"),
        ("simplex.check_ppt.calls", "count"),
        ("simplex.check_ppt.per_ppt_all", "ratio"),
        ("simplex.check_ppt_all.self_ms", "ms"),
        ("simplex.check_polytope.self_ms", "ms"),
        ("simplex.ppt_failures", "count"),
        ("formats.qopb_encode.self_ms", "ms"),
        ("formats.qopb_encode.bytes", "B"),
        ("formats.qopb_decode.self_ms", "ms"),
        ("formats.qopb_decode.bytes", "B"),
        ("formats.dumps_verdict.self_ms", "ms"),
        ("formats.dumps_verdict.bytes", "B"),
        ("formats.dumps_descriptor.self_ms", "ms"),
        ("formats.parse_descriptor.self_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.main.self_ms", "ms"),
        ("cli.spawn_ms", "ms"),
    ]
    out += [(f"selfcheck.{n}.ms", "ms") for n in SELFCHECK_NAMES]
    out.append(("trace.overhead_s", "s"))
    return out


def layer_metrics(tracer: Tracer, children: list[dict], overhead_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced pass, and the names reported absent.

    ``children`` holds, per traced CLI child, its ``import_ms`` and its
    ``spawn_ms`` (parent-observed wall time minus the child's main span).
    Layers a workload never enters read 0; absent names also read 0.
    """
    calls, total, self_ms = _per_name(tracer.spans)
    c = tracer.counters
    proj_calls = calls["projectors.invariant_projector"]
    values = {
        "operators.dense_mib": c["operators.dense_bytes"] / MIB,
        "projectors.cache_misses": c["projectors.cache_misses"],
        "projectors.cache_hit_ratio": (proj_calls - c["projectors.cache_misses"]) / proj_calls if proj_calls else 0.0,
        "projectors.cache_mib": c["projectors.cache_bytes"] / MIB,
        "simplex.mc_twirl.samples": c["simplex.mc_twirl.samples"],
        "simplex.check_ppt.per_ppt_all": (
            _ppt_calls_in_ppt_all(tracer.spans) / c["simplex.check_ppt.useful"] if c["simplex.check_ppt.useful"] else 0.0
        ),
        "simplex.ppt_failures": c["simplex.ppt_failures"],
        "formats.qopb_encode.bytes": c["formats.qopb_encode.bytes"],
        "formats.qopb_decode.bytes": c["formats.qopb_decode.bytes"],
        "formats.dumps_verdict.bytes": c["formats.dumps_verdict.bytes"],
        "cli.import_ms": statistics.median(ch["import_ms"] for ch in children) if children else 0.0,
        "cli.spawn_ms": statistics.median(ch["spawn_ms"] for ch in children) if children else 0.0,
        "trace.overhead_s": overhead_s,
    }
    for name, _ in per_layer_names():
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls[base]
        elif kind == "self_ms":
            values[name] = self_ms[base]
        elif kind == "ms":
            values[name] = total[base]
        else:
            raise KeyError(name)
    absent = sorted(
        name for name, _ in per_layer_names()
        if name in tracer.absent or name.rpartition(".")[0] in tracer.absent
    )
    return values, absent
