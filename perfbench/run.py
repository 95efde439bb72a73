"""Benchmark of the `feather` command line, end to end and per layer.

    python3 perfbench/run.py --workload replay-a --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
the seed (see workloads.py) into a scratch directory under perfbench/_work.

--trace 0 times the CLI the way a user runs it: `python -m feather ...` with
PYTHONPATH=src, one child process at a time (a closed loop with one client),
repeated for about --seconds seconds. Each run must exit 0, print no
`Errors & Warnings` section, write outputs that match the generator's ground
truth and be byte-identical to the first run's outputs; any other run counts
as failed; failed / attempted is the run's fail ratio. Metrics: wall_s, the
median wall time of a run from spawn to exit; peak_rss_mb, the median of each
run's own peak RSS; setup_s, the median time of `python -m feather -h`
(interpreter start plus import), run once after each workload run. Both
times are scaled to a reference machine speed, see REF_S.

--trace 1 drives the same pipeline in this process through each module's
public functions, at full and at half scale, and reports per-layer numbers
(see traced.py).

Every result, with the machine's state before and after, is stored under
perfbench/_work/results. The last line of standard output is the result as
one JSON object: correct, attempted, failed (runs) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import GENERATORS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_RUNS = 11  # at least this many `-h` runs, one after each workload run
CHILD_TIMEOUT_S = 170
# Co-tenants of a small VM slow it by up to 2x for seconds to minutes at a
# time, and CPU time slows with wall time. A fixed pure-Python loop slows with
# it, so the loop is timed after every run, and each run's time is multiplied
# by REF_S / (the mean of the loop's times just before and just after it):
# times are reported for a machine on which the loop takes REF_S, about its
# uncontended time on a 2-vCPU VM with Python 3.11.7. A loop sample does not
# track a 10-s run, nor does the loop's median over a whole timed run track
# 1-2 s runs (on constraints-2k the spread over 10 seeds stayed at 0.26 of
# the median, raw 0.29), but samples next to each 1-2 s run do (0.02-0.10).
# The raw times are kept in the record.
REF_S = 0.020
REF_REPEATS = 7


class _Node:
    """A feature-like object for reference_loop(): a name and attributes."""

    def __init__(self, name: str, w: int, parent: str):
        self.name = name
        self.attrs = {"w": w, "_parent": parent}

    def __eq__(self, other):
        return self.name == other.name and self.attrs == other.attrs


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds the CLI does.

    Dict lookups and f-strings, as in lexing and parsing; then objects with
    attribute dicts built, found by `==` list scans and joined pairwise
    through calls, as in the model and the resolver. The loop with the first
    part alone slowed more than the workloads when the machine did.
    """
    d = {}
    for i in range(30000):
        k = f"k{i % 997}"
        d[k] = d.get(k, 0) + len((i, k))
    nodes = [_Node(f"n{i}", (i * 7919) % 1000, f"g{i % 20}") for i in range(2000)]
    found = sum(nodes[-1 - j] in nodes for j in range(3))

    def attr(node, key):
        return node.attrs.get(key)

    pairs = 0
    for x in nodes[:200]:
        for y in nodes[:200]:
            if attr(x, "_parent") == attr(y, "_parent") and attr(x, "w") > attr(y, "w"):
                pairs += 1
    return len(d) + found + pairs


def reference_s() -> float:
    """Median time of REF_REPEATS runs of reference_loop()."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Child:
    """One finished CLI run."""

    def __init__(self, args: list, cwd: Path):
        log = cwd / "transcript.txt"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "feather", *args],
                                    cwd=cwd, env=env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # keep the maximum over every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted, e.g. by SIGTERM: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.transcript = log.read_text(errors="replace")
        self.ref_s = reference_s()  # the machine's speed right after this run


def after(prev: Child, child: Child) -> Child:
    """`child`, with its wall time scaled by the samples either side of it."""
    child.scaled_s = child.wall_s * REF_S / ((prev.ref_s + child.ref_s) / 2)
    return child


def cli_problems(child: Child) -> list:
    problems = []
    if child.exit_code != 0:
        problems.append(f"exit status {child.exit_code}")
    if "Errors & Warnings" in child.transcript:
        problems.append("the transcript reports errors or warnings")
    return problems


def read_outputs(workdir: Path, names) -> dict:
    return {n: (workdir / n).read_text() for n in names if (workdir / n).exists()}


def measure(wl, workdir: Path, seconds: float) -> dict:
    """Closed loop of CLI runs; stops before a run would end past `seconds`.

    Each workload run is followed by one `-h` run, so that setup time is
    taken over the same stretch of time as the workload runs.
    """
    warm = Child(["-h"], workdir)  # writes the bytecode caches, as an installed package has them
    runs, setup, first, failures = [], [], None, []
    start = time.perf_counter()
    while True:
        for name in wl.outputs:
            (workdir / name).unlink(missing_ok=True)
        child = after(setup[-1] if setup else warm, Child(wl.args, workdir))
        setup.append(after(child, Child(["-h"], workdir)))
        outputs = read_outputs(workdir, wl.outputs)
        problems = cli_problems(child) + wl.check(outputs)
        if first is None:
            first = outputs
        elif outputs != first:
            problems.append("output differs from the first run's")
        runs.append(child)
        if problems:
            failures.append({"run": len(runs), "problems": problems})
        elapsed = time.perf_counter() - start
        if elapsed + max(r.wall_s for r in runs) > seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(after(setup[-1], Child(["-h"], workdir)))
    return {
        "attempted": len(runs),
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            "wall_s": (statistics.median(r.scaled_s for r in runs), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
            "setup_s": (statistics.median(r.scaled_s for r in setup), "s"),
        },
        "raw": {"wall_s": statistics.median(r.wall_s for r in runs),
                "setup_s": statistics.median(r.wall_s for r in setup)},
        "samples": {"cli": {"wall_s": [r.wall_s for r in runs],
                            "cpu_s": [r.cpu_s for r in runs],
                            "peak_rss_mb": [r.peak_rss_mb for r in runs],
                            "reference_s": [r.ref_s for r in runs],
                            "scaled_s": [r.scaled_s for r in runs]},
                    "setup": {"wall_s": [r.wall_s for r in setup],
                              "reference_s": [r.ref_s for r in setup],
                              "scaled_s": [r.scaled_s for r in setup]},
                    "warm_up_reference_s": warm.ref_s},
    }


def cpu_times() -> dict | None:
    """Aggregate CPU jiffies from /proc/stat, steal included."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return dict(zip(names, map(int, fields[1:9])))


def machine_state() -> dict:
    return {"time": time.time(), "loadavg": os.getloadavg(), "cpu": cpu_times()}


def describe_machine(before: dict, after: dict) -> dict:
    steal = None
    if before["cpu"] and after["cpu"]:
        delta = {k: after["cpu"][k] - before["cpu"][k] for k in before["cpu"]}
        total = sum(delta.values())
        steal = delta["steal"] / total if total else 0.0
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "before": before, "after": after, "steal_share": steal}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "feather" / "__init__.py").is_file():
        print(f"error: no feather package under {SRC}", file=sys.stderr)
        return 2

    wl = GENERATORS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        for name, text in wl.files.items():
            (workdir / name).write_text(text)
        before = machine_state()
        if args.trace:
            import traced
            result = traced.run(args.workload, args.seed, workdir,
                                lambda: measure(wl, workdir, 0))
        else:
            result = measure(wl, workdir, args.seconds)
        after = machine_state()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans = result.pop("spans", None)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": describe_machine(before, after),
              **result}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(before["time"]))
    path = results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:  # [name, start_ns, end_ns, parent index, command index]
        path.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")

    for f in result["failures"]:
        print(f"failed: {f}", file=sys.stderr)
    for label, p in result.get("passes", {}).items():
        spans = sorted(p["summary"]["spans"].items(), key=lambda kv: -kv[1]["total_s"])
        for name, sp in spans:
            print(f"# {label} {name:24s} calls {sp['calls']:6d} "
                  f"total {sp['total_s']:9.4f} s  self {sp['self_s']:9.4f} s")
    machine = record["machine"]
    print(f"# {wl.name} seed {args.seed}: {result['attempted']} runs, "
          f"fail_ratio {result['failed'] / result['attempted']:.3f}, "
          f"python {machine['python']}, nproc {machine['nproc']}, "
          f"load {machine['before']['loadavg'][0]:.2f}->"
          f"{machine['after']['loadavg'][0]:.2f}, steal {machine['steal_share']}, "
          f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
