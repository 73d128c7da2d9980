#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload table1-clear --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same tree.  With ``--trace 0`` the jobs run untraced and the result
carries the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` half the time runs untraced and half traced, and the result
carries the per-layer metrics (spans are saved under ``.bench_out/``).
The last line of standard output is the result; the exit code is 1 if
any correctness check failed and 2 if the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One benchmark thread; BLAS gets a fixed thread count unless the caller
# sets one, so both sides of a comparison use the same setting.
BLAS_THREADS = "1"
SETUP_REPS = 11
MAX_RUN_S = 120.0  # stop adding jobs past this, whatever the minimum


def import_seconds(reps: int = SETUP_REPS) -> tuple[float, float]:
    """Median wall and scaled time to import the package in a fresh interpreter.

    Each import is scaled by the reference imports run just before and
    just after it (see calibrate.py).
    """
    from calibrate import REFERENCE_IMPORTS, REFERENCE_S, child_import_s
    walls, scaled = [], []
    ref = child_import_s(REFERENCE_IMPORTS)
    for _ in range(reps):
        walls.append(child_import_s(["fhefft"], str(SRC)))
        ref_after = child_import_s(REFERENCE_IMPORTS)
        scaled.append(walls[-1] * 2 * REFERENCE_S["import"] / (ref + ref_after))
        ref = ref_after
    return statistics.median(walls), statistics.median(scaled)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # so a repository around the tree is not read
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None  # no git
    return res.stdout.strip()


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def percentile_with_tail(times: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    out = {"samples": len(times), "median_s": statistics.median(times)}
    if len(times) >= 20:
        pct = int(100 * (1 - 10 / len(times)))
        out[f"p{pct}_s"] = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return out


def run_jobs(wl, state, seconds, min_jobs, cal, tracer=None):
    """Run jobs until the next one would end past `seconds` (once min_jobs ran).

    Returns raw wall times, times scaled by the calibration kernel sampled
    during each job, and the jobs' results.
    """
    from workloads import no_span
    walls, scaled, results = [], [], []
    t_start = time.perf_counter()
    while True:
        inputs = wl.prepare(state, len(walls))
        if tracer is None:
            with cal.window() as win:
                t0 = time.perf_counter()
                raw = wl.job(state, inputs, no_span)
                wall = time.perf_counter() - t0
        else:
            tracer.job = len(walls)
            with tracer.installed(), tracer.span("job"), cal.window() as win:
                t0 = time.perf_counter()
                raw = wl.job(state, inputs, tracer.span)
                wall = time.perf_counter() - t0
        walls.append(wall)
        scaled.append(win.scale(wall))
        results.append(wl.check(state, inputs, raw))
        elapsed = time.perf_counter() - t_start
        if len(walls) >= min_jobs and elapsed + statistics.median(walls) > seconds \
                or elapsed > MAX_RUN_S:
            break
    return walls, scaled, results


def consistent(results) -> bool:
    """Every job of a workload runs the same circuit, so counts must repeat."""
    return len({(r.nand_count, r.nand_depth) for r in results}) == 1


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path,
            setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Run a workload; return the result (metrics by name) and a detail record.

    Times in the result are scaled to the calibration kernel's reference
    speed (see calibrate.py); the detail record keeps the raw wall times.
    """
    from calibrate import Calibration
    import_wall, import_scaled = import_seconds(setup_reps)
    cal = Calibration(wl.calibration)
    setup_times, setup_scaled = [], []
    for _ in range(setup_reps):
        before = cal.speed()
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        setup_scaled.append(setup_times[-1] * (before + cal.speed()) / 2)
    state_s = statistics.median(setup_scaled)
    setup_s = import_scaled + state_s
    detail = {"workload": wl.name, "trace": int(trace), "env": environment(seed),
              "setup": {"import_wall_s": import_wall, "import_s": import_scaled,
                        "state_wall_s": setup_times, "state_s": state_s}}
    if not trace:
        walls, scaled, results = run_jobs(wl, state, seconds, wl.accuracy_jobs, cal)
        first = results[:wl.accuracy_jobs]
        metrics = {
            "job_s": statistics.median(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "nand_count": results[0].nand_count,
            "nand_depth": results[0].nand_depth,
        }
        spectra = [r.mean_error for r in first if r.mean_error is not None]
        detail["bound_ratio"] = max(r.bound_ratio for r in first)
        detail["job_s"] = {"scaled": percentile_with_tail(scaled),
                           "wall": percentile_with_tail(walls),
                           "first_scaled_s": scaled[0]}
        detail["mean_error"] = statistics.fmean(spectra) if spectra else None
        detail["container_bytes"] = results[0].container_bytes or None
        all_results = results
    else:
        from tracing import Tracer, format_summary, layer_metrics
        half = seconds / 2
        _, plain_scaled, plain_results = run_jobs(wl, state, half, 1, cal)
        tracer = Tracer()
        with tracer.installed(), tracer.span("setup"):
            state = wl.setup(seed, workdir)
        _, traced_scaled, traced_results = run_jobs(wl, state, half, 1, cal, tracer)
        metrics = layer_metrics(tracer, traced_results, statistics.median(plain_scaled),
                                statistics.median(traced_scaled))
        # the run's first job finds no cache of an earlier job warm; kept
        # apart so a cache that only helps later jobs shows as such
        metrics["job.first_s"] = plain_scaled[0]
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{wl.name}-seed{seed}.npz"
        tracer.write(trace_file)
        print(format_summary(tracer))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        detail["job_s"] = {"untraced": percentile_with_tail(plain_scaled),
                           "traced": percentile_with_tail(traced_scaled)}
        all_results = plain_results + traced_results

    samples = [t for win in cal.windows for t in win.samples]
    detail["calibration"] = {"kernel": cal.kind, "reference_s": cal.reference,
                             "samples": len(samples), "mean_s": statistics.fmean(samples)}
    attempted = sum(r.attempted for r in all_results)
    failed = sum(r.failed for r in all_results)
    correct = failed == 0 and consistent(all_results)
    detail["fail_ratio"] = failed / attempted
    detail["jobs"] = len(all_results)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def to_result(result: dict, spec: dict, trace: bool) -> dict:
    """The result line: the mode's metrics from BENCHMARK.json, each with its unit."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {**result, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "fhefft" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: no fhefft package under {SRC} (run from a full checkout)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)  # before numpy loads
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result, detail = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                                 bool(args.trace), Path(workdir))
    result = to_result(result, spec, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
