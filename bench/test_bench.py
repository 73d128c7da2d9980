"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
in both modes; that NAND counts and depths repeat exactly; that each
transform stays under error_model's NAND ceiling; and that the
correctness gates catch a wrong result.  It pins no NAND count, so a
change that lowers the counts passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

os.environ.setdefault("OPENBLAS_NUM_THREADS", run.BLAS_THREADS)  # before numpy loads
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return {
        "table1-clear": lambda: workloads.Table1Clear(sizes=(8,), trials=4),
        "image2d-clear": lambda: workloads.Image2dClear(images=2, shape=(4, 4)),
        "pipeline-exact": lambda: workloads.PipelineExact(m_points=4, accuracy_jobs=2),
        "gates-default": lambda: workloads.GatesDefault(pairs=2, accuracy_jobs=2),
    }[name]()


def measure(name, tmp_path, seed=1, trace=False):
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    return run.measure(tiny(name), seed, 0.01, trace, workdir, setup_reps=1)


def test_spec_names_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_metrics_and_repeatable_counts(name, tmp_path):
    first, detail = measure(name, tmp_path)
    again, _ = measure(name, tmp_path)
    other_seed, _ = measure(name, tmp_path, seed=2)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    assert detail["env"]["seed"] == 1 and detail["env"]["OPENBLAS_NUM_THREADS"]

    out = run.to_result(first, SPEC, trace=False)["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in out.items()}
    assert all(v["value"] > 0 for v in out.values())
    assert detail["bound_ratio"] <= 1
    for key in ("nand_count", "nand_depth"):
        assert first["metrics"][key] == again["metrics"][key] == other_seed["metrics"][key]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_metrics(name, tmp_path):
    result, detail = measure(name, tmp_path, trace=True)
    assert result["correct"]
    out = run.to_result(result, SPEC, trace=True)["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in out.items()}
    assert (ROOT / detail["trace_file"]).is_file()


@pytest.mark.parametrize("name", ["table1-clear", "image2d-clear", "pipeline-exact"])
def test_transforms_stay_under_the_nand_ceiling(name, tmp_path):
    wl = tiny(name)
    state = wl.setup(3, tmp_path)
    inputs = wl.prepare(state, 0)
    result = wl.check(state, inputs, wl.job(state, inputs, workloads.no_span))
    assert result.failed == 0
    assert 0 < result.nand_count <= result.nand_ceiling


def test_wrong_spectrum_fails_the_gate(tmp_path):
    wl = tiny("table1-clear")
    state = wl.setup(4, tmp_path)
    seeds = wl.prepare(state, 0)
    reports = wl.job(state, seeds, workloads.no_span)
    broken = [dataclasses.replace(r, max_error=2 * r.error_bound) for r in reports]
    assert wl.check(state, seeds, broken).failed == wl.trials


def test_wrong_bit_fails_the_gate(tmp_path):
    wl = tiny("gates-default")
    state = wl.setup(5, tmp_path)
    inputs = wl.prepare(state, 0)
    out, stats, gate_s = wl.job(state, inputs, workloads.no_span)
    flipped = [(1 - out[0][0], out[0][1])] + out[1:]
    assert wl.check(state, inputs, (out, stats, gate_s)).failed == 0
    assert wl.check(state, inputs, (flipped, stats, gate_s)).failed == 1


def test_pipeline_counts_a_failed_step(tmp_path):
    wl = tiny("pipeline-exact")
    state = wl.setup(6, tmp_path)
    inputs = wl.prepare(state, 0)
    inputs["argv"]["encrypt"][inputs["argv"]["encrypt"].index("--keys") + 1] = \
        str(tmp_path / "missing.json")
    result = wl.check(state, inputs, wl.job(state, inputs, workloads.no_span))
    assert result.failed == 4  # encrypt fails, the three steps after it never run


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gates-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
