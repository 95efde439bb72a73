"""Self-tests of the benchmark, at a tiny scale.

    python -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import traced
from workloads import GENERATORS, equijoin

BENCH = Path(__file__).resolve().parent
TINY = 0.05


@pytest.fixture
def feather():
    if str(traced.SRC) not in sys.path:
        sys.path.insert(0, str(traced.SRC))
    return importlib.import_module("feather")


def _inputs(tmp_path, wl):
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text)


@pytest.fixture(autouse=True)
def _one_setup_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_cli_run_matches_ground_truth(tmp_path, name):
    wl = GENERATORS[name](3, TINY)
    _inputs(tmp_path, wl)
    result = run.measure(wl, tmp_path, 0)
    assert (result["attempted"], result["failed"]) == (1, 0), result["failures"]
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_traced_pass_reaches_every_expected_span(tmp_path, name, feather):
    wl = GENERATORS[name](3, TINY)
    _inputs(tmp_path, wl)
    p = traced.traced_pass(feather, wl, tmp_path)
    assert p["problems"] == []
    assert set(wl.spans) <= set(p["summary"]["spans"])
    codes = {n.split(".")[1] for n in p["summary"]["spans"] if n.startswith("commands.")}
    assert codes <= set(traced.CODES)


def test_all_ten_command_codes_are_covered():
    spans = {s for name in GENERATORS for s in GENERATORS[name](3, TINY).spans}
    assert {f"commands.{c}" for c in traced.CODES} <= spans


def test_dropped_constraint_line_counts_as_failed(tmp_path, monkeypatch):
    wl = GENERATORS["constraints-2k"](3, TINY)
    _inputs(tmp_path, wl)
    read = run.read_outputs

    def drop_one_constraint(workdir, names):
        outputs = read(workdir, names)
        lines = outputs["out.fd"].splitlines(keepends=True)
        victim = next(i for i, line in enumerate(lines) if line.startswith("constraint"))
        outputs["out.fd"] = "".join(lines[:victim] + lines[victim + 1:])
        return outputs

    monkeypatch.setattr(run, "read_outputs", drop_one_constraint)
    result = run.measure(wl, tmp_path, 0)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "fd: " in " ".join(result["failures"][0]["problems"])


def test_a_span_that_records_no_call_stops_the_trace(tmp_path, feather):
    wl = equijoin(3, TINY)
    wl.spans += ("model.subtree",)  # equijoin never calls subtree
    _inputs(tmp_path, wl)
    with pytest.raises(RuntimeError, match="model.subtree"):
        traced.traced_pass(feather, wl, tmp_path)


def test_a_renamed_wrapped_name_stops_the_trace(tmp_path, feather, monkeypatch):
    monkeypatch.delattr(feather.commands, "resolve")
    with pytest.raises(RuntimeError, match="resolve"):
        with traced.instrumented(traced.Tracer(), feather):
            pass


def test_full_scale_ground_truth():
    a = GENERATORS["replay-a"](1).expected
    assert len(a["features"]) == 1161
    assert sum(1 for p, _, _ in a["features"].values()
               if p and p.startswith("Pricing")) == 1154
    c = GENERATORS["constraints-2k"](1).expected
    assert (c["constraints_before"], c["constraints_after_bulk"]) == (2104, 2071)
    assert len(c["constraints"]) == 2070
    assert sum(k == "requires" for _, k, _ in c["constraints"]) == 105
    assert len(c["features"]) == 432
    j = GENERATORS["equijoin"](1)
    assert j.size == 463
    assert 4_000 < len(j.expected["constraints"]) < 4_400


def test_seed_changes_inputs_not_formulas():
    one, two = GENERATORS["constraints-2k"](1), GENERATORS["constraints-2k"](2)
    assert one.files != two.files
    assert len(one.expected["constraints"]) == len(two.expected["constraints"])
    assert GENERATORS["equijoin"](1).files == GENERATORS["equijoin"](1).files


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
    documented = [m for layer in layers["layers"] for m in layer["metrics"]]
    assert sorted(documented) == sorted(m["name"] for m in spec["per_layer"])


def test_traced_metrics_match_benchmark_json(tmp_path, feather):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wl = equijoin(3, TINY)
    _inputs(tmp_path, wl)
    p = traced.traced_pass(feather, wl, tmp_path)
    half = dict(p, size=p["size"] / 2)
    cli = {"raw": {"wall_s": 1.0, "setup_s": 0.5}}
    metrics = traced.layer_metrics(p, half, cli)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "equijoin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
