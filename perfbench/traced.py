"""Traced in-process run: per-layer spans, counts and growth exponents.

The pipeline is driven the way the CLI drives it, through each module's
public functions: parse (tokenize inside), validate_static, build_model or
import_tvl, execute once per command, serialize_declarations and
export_tvl. The layers that are only reached through another layer are
wrapped by name for the duration of the run, so that their spans nest under
their caller: `resolve` as `feather.commands` imports it, `tokenize` as
`feather.parser` imports it, and four `FeatureModel` methods. A wrapped name
that no longer exists, or an expected span that records no call, stops the
run with an error instead of reporting zero time.

Each span records its name, start, end, parent span and command index; the
spans stay in memory and are written out at the end. Times are reported as
seconds where every workload reaches the span, and as a share of the traced
total for every span, so that a layer a workload bypasses reads 0 % rather
than a time of exactly zero.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import GENERATORS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

CODES = ("addf", "upf", "upmf", "rmf", "rmmf", "addc", "upc", "upmc", "rmc", "rmmc")
METHODS = ("copy", "subtree", "add_constraint", "remove_constraint")
# spans reported in seconds: every workload's traced pass reaches them
ABSOLUTE = ("tokens.tokenize", "parser.parse", "parser.validate_static",
            "resolver.resolve", "commands.apply", "model.copy",
            "serializer.serialize", "tvl.export_tvl")
SHARES = (ABSOLUTE + ("build.build_model", "tvl.import_tvl")
          + tuple(f"commands.{c}" for c in CODES)
          + tuple(f"model.{m}" for m in METHODS[1:]))
GROWTH = ("resolver.resolve", "build.build_model", "model.copy", "model.subtree",
          "model.add_constraint", "commands.apply")


class Tracer:
    """Nested spans: [name, start_ns, end_ns, parent index or -1, command]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = 0
        self.counts = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.command]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus the total."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top = 0
        for (name, start, end, parent, _), inner in zip(self.spans, child_ns):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += (end - start) / 1e9
            s["self_s"] += (end - start - inner) / 1e9
            if parent < 0:
                top += end - start
        return {"spans": dict(out), "traced_s": top / 1e9}


def _replace(owner, attr: str, make):
    """Swap owner.attr for make(original); returns the undo callback."""
    if not hasattr(owner, attr):
        raise RuntimeError(f"{getattr(owner, '__name__', owner)} has no {attr!r}: "
                           "the trace wrappers no longer match the program")
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))
    return lambda: setattr(owner, attr, original)


@contextmanager
def instrumented(tracer: Tracer, feather):
    parser, commands, resolver = feather.parser, feather.commands, feather.resolver
    domains = []

    def tokenize(fn):
        def traced(*args, **kwargs):
            tokens = tracer.call("tokens.tokenize", fn, *args, **kwargs)
            tracer.counts["tokens.tokens"] += len(tokens)
            return tokens
        return traced

    def candidate_domain(fn):
        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            domains.append(len(out))
            return out
        return traced

    def resolve(fn):
        def traced(*args, **kwargs):
            domains.clear()
            res = tracer.call("resolver.resolve", fn, *args, **kwargs)
            tracer.counts["resolver.candidates"] += math.prod(domains)
            tracer.counts["resolver.tuples"] += len(res.tuples)
            return res
        return traced

    def method(name):
        return lambda fn: lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)

    undo = [_replace(parser, "tokenize", tokenize),
            _replace(resolver, "candidate_domain", candidate_domain),
            _replace(commands, "resolve", resolve)]
    try:
        undo += [_replace(feather.FeatureModel, m, method(f"model.{m}")) for m in METHODS]
        yield
    finally:
        for u in reversed(undo):
            u()


def traced_pass(feather, wl, workdir: Path) -> dict:
    """One traced run of the workload's pipeline; checks its outputs too."""
    flags = dict(zip(wl.args[::2], wl.args[1::2]))
    read = {flag: (workdir / name).read_text() for flag, name in flags.items()
            if flag in ("-t", "-d", "-c")}
    tracer = Tracer()
    problems = []
    with instrumented(tracer, feather):
        model = None
        if "-t" in read:
            model = tracer.call("tvl.import_tvl", feather.import_tvl, read["-t"])
            ast = feather.parser.ScriptAst()
        else:
            ast, errors = tracer.call("parser.parse", feather.parse_declarations, read["-d"])
            problems += [str(e) for e in errors]
        cmd_ast, errors = tracer.call("parser.parse", feather.parse_commands, read["-c"])
        problems += [str(e) for e in errors]
        ast.commands = cmd_ast.commands
        problems += tracer.call("parser.validate_static", feather.validate_static, ast)
        if model is None:
            model = tracer.call("build.build_model", feather.build_model, ast)
        for i, cmd in enumerate(ast.commands, 1):
            tracer.command = i
            model, results = tracer.call(f"commands.{cmd.code}", feather.execute, model, cmd)
            problems += [f"command {i} {cmd.code}: {sev}: {msg}" for sev, msg in results]
        tracer.command = 0
        fd = tracer.call("serializer.serialize", feather.serialize_declarations, model)
        tvl = tracer.call("tvl.export_tvl", feather.export_tvl, model)
    problems += wl.check({"out.fd": fd, "out.tvl": tvl})

    summary = tracer.summary()
    missing = [s for s in wl.spans if s not in summary["spans"]]
    if missing:
        raise RuntimeError(f"{wl.name}: expected spans recorded no calls: {missing}")
    counts = dict(tracer.counts)
    counts.update({"parser.commands": len(ast.commands),
                   "model.features_out": len(model.features),
                   "model.constraints_out": len(model.constraints),
                   "serializer.out_bytes": len(fd.encode())})
    return {"summary": summary, "counts": counts, "problems": problems,
            "size": wl.size, "spans": tracer.spans}


def _seconds(p: dict) -> dict:
    """Reported time per span name (see the metric table in layers.json)."""
    spans = p["summary"]["spans"]
    t = {name: s["total_s"] for name, s in spans.items()}
    t["parser.parse"] = spans.get("parser.parse", {}).get("self_s", 0.0)
    t["commands.apply"] = sum(s["self_s"] for n, s in spans.items()
                              if n.startswith("commands."))
    return t


def layer_metrics(full: dict, half: dict, cli: dict) -> dict:
    t = _seconds(full)
    spans = full["summary"]["spans"]
    traced_s = full["summary"]["traced_s"]
    c = full["counts"]
    m = {f"{name}_s": (t[name], "s") for name in ABSOLUTE}
    m["trace.traced_s"] = (traced_s, "s")
    cli_work = cli["raw"]["wall_s"] - cli["raw"]["setup_s"]
    m["trace.overhead_ratio"] = (traced_s / cli_work, "ratio")
    m["tokens.tokens"] = (c["tokens.tokens"], "count")
    m["tokens.tokens_per_s"] = (c["tokens.tokens"] / t["tokens.tokenize"], "1/s")
    m["parser.commands"] = (c["parser.commands"], "count")
    m["resolver.calls"] = (spans["resolver.resolve"]["calls"], "count")
    m["resolver.candidates"] = (c["resolver.candidates"], "count")
    m["resolver.tuples"] = (c["resolver.tuples"], "count")
    m["resolver.yield"] = (c["resolver.tuples"] / c["resolver.candidates"], "ratio")
    m["resolver.ns_per_candidate"] = (
        t["resolver.resolve"] * 1e9 / c["resolver.candidates"], "ns")
    for code in CODES:
        m[f"commands.{code}_n"] = (spans.get(f"commands.{code}", {}).get("calls", 0), "count")
    for meth in METHODS:
        m[f"model.{meth}_calls"] = (spans.get(f"model.{meth}", {}).get("calls", 0), "count")
    for key in ("model.features_out", "model.constraints_out", "serializer.out_bytes"):
        m[key] = (c[key], "B" if key.endswith("bytes") else "count")
    for name in SHARES:
        m[f"{name}_pct"] = (100 * t.get(name, 0.0) / traced_s, "%")
    h = _seconds(half)
    ratio = math.log(full["size"] / half["size"])
    for name in GROWTH:
        a, b = t.get(name, 0.0), h.get(name, 0.0)
        # 0 where the workload bypasses the layer at either scale
        m[f"{name}_s.growth"] = (math.log(a / b) / ratio if a > 0 and b > 0 else 0.0,
                                 "exponent")
    return m


def run(workload: str, seed: int, workdir: Path, measure_cli) -> dict:
    """Traced passes at full and half scale plus one untraced CLI run.

    The spans of both passes are returned under "spans", for the caller to
    write out.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    feather = importlib.import_module("feather")
    passes = {}
    # half first, so that the full-scale inputs stay for the CLI run
    for label, scale in (("half", 0.5), ("full", 1.0)):
        wl = GENERATORS[workload](seed, scale)
        for name, text in wl.files.items():
            (workdir / name).write_text(text)
        passes[label] = traced_pass(feather, wl, workdir)
    cli = measure_cli()
    failures = [{"run": label, "problems": p["problems"]}
                for label, p in passes.items() if p["problems"]]
    failures += cli["failures"]
    return {
        "attempted": len(passes) + cli["attempted"],
        "failed": len(failures),
        "failures": failures,
        "metrics": layer_metrics(passes["full"], passes["half"], cli),
        "spans": {label: p.pop("spans") for label, p in passes.items()},
        "passes": passes,
        "cli": cli,
    }
