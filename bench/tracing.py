"""In-memory span tracer for the traced benchmark run.

Every span is recorded from the benchmark's own files: the workloads open
spans around their own calls into a module, and ``Tracer.installed``
swaps public functions of the package's modules for wrappers that open a
span around each call.  The package source is never edited, and outside
``installed`` nothing is wrapped.

A span is (name, start, end, parent, job).  Spans stay in compact arrays
until ``write`` saves them.  A span's self time is its duration minus the
time its direct children cover; calls run on one thread, so children do
not overlap.

Gate-level calls (``CleartextEngine.nand``, ``FheEngine.nand``) are far
too many for spans, so their wrapper only counts calls; FFT stages come
from the public ``on_butterfly`` hook and ``engine.nand_count`` deltas.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from fhefft import cli, engine, fft, fhe, fileio, harness
from workloads import STEPS

STAGE_SIZES = tuple(2**k for k in range(1, 8))


@dataclass
class SpanStats:
    count: int  # outermost calls (a span nested in one of its own name is not counted)
    total_s: float  # inclusive time of the outermost calls
    self_s: float  # time not covered by child spans, over every call


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("I")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._job = array("q")
        self._stack: list[int] = []
        self._saved: list = []
        self.job = -1
        self.nand_calls = 0
        self.mul_const_nands = 0
        self.butterflies = 0
        self.stages = defaultdict(lambda: [0.0, 0])  # size -> [seconds, NANDs]

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._job.append(self.job)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)
        return functools.wraps(fn)(traced)

    # -- wrappers that also count ------------------------------------------

    def _counted_nand(self, fn):
        def nand(eng, a, b):
            self.nand_calls += 1
            return fn(eng, a, b)
        return functools.wraps(fn)(nand)

    def _traced_mul_const(self, fn):
        def mul_const(x, c):
            eng = x.engine
            before = eng.nand_count
            idx = self._begin("arith.mul_const")
            try:
                return fn(x, c)
            finally:
                self._finish(idx)
                self.mul_const_nands += eng.nand_count - before
        return functools.wraps(fn)(mul_const)

    def _traced_fft_1d(self, fn):
        tracer = self

        def fft_1d(signal, table=None, on_butterfly=None):
            eng = signal.points[0].re.engine
            last = [time.perf_counter(), eng.nand_count]

            def hook(size, i, j):
                # butterflies of a stage may all finish before the first
                # hook call, so time and NANDs are attributed per stage
                now, nands = time.perf_counter(), eng.nand_count
                stage = tracer.stages[size]
                stage[0] += now - last[0]
                stage[1] += nands - last[1]
                last[0], last[1] = now, nands
                tracer.butterflies += 1
                if on_butterfly is not None:
                    on_butterfly(size, i, j)

            idx = tracer._begin("fft.fft_1d")
            try:
                return fn(signal, table, hook)
            finally:
                tracer._finish(idx)
        return functools.wraps(fn)(fft_1d)

    def _traced_table(self, cls):
        tracer = self

        class TracedTwiddleTable(cls):
            def __init__(self, *args, **kwargs):
                with tracer.span("fft.twiddle_table"):
                    super().__init__(*args, **kwargs)
        return TracedTwiddleTable

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = vars(owner)[attr]  # a renamed interface fails here, not as a quiet 0
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public functions for the duration of the block."""
        named = lambda name: functools.partial(self.wrap, name)  # noqa: E731
        try:
            for attr in ("reference_fft", "reference_fft2d"):
                self._patch(harness, attr, named("harness.oracle"))
            for mod in (harness, cli, fft):
                self._patch(mod, "fft_1d", self._traced_fft_1d)
            for mod in (harness, cli):
                self._patch(mod, "fft_2d", named("fft.fft_2d"))
            self._patch(fft, "TwiddleTable", self._traced_table)
            self._patch(fft, "mul_const", self._traced_mul_const)
            for attr in ("add", "sub", "input_word", "read_word"):
                self._patch(fft, attr, named(f"arith.{attr}"))
            for cls in (engine.CleartextEngine, engine.FheEngine):
                self._patch(cls, "nand", self._counted_nand)
            for attr, name in (("hom_nand", "hom_nand"), ("hom_not", "hom_not"),
                               ("flatten", "flatten"), ("encrypt_bit", "encrypt_bit"),
                               ("decrypt_bit", "decrypt_bit"),
                               ("decrypt_bit_with_noise", "decrypt_bit"),
                               ("keygen", "keygen")):
                self._patch(fhe.GswScheme, attr, named(f"fhe.{name}"))
            for attr in sorted(vars(fileio)):
                if attr.startswith(("read_", "write_")) and callable(getattr(fileio, attr)):
                    self._patch(fileio, attr, named(f"fileio.{attr}"))
            yield self
        finally:
            while self._saved:
                owner, attr, orig = self._saved.pop()
                setattr(owner, attr, orig)

    # -- reading -----------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.uint32).astype(np.int64)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        return name, start, end, parent

    def summary(self) -> dict[str, SpanStats]:
        name, start, end, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[nested], dur[nested])
        self_s = dur - covered
        outer = ~nested | (name[np.where(nested, parent, 0)] != name)
        out = {}
        for nid, label in enumerate(self.names):
            mine = name == nid
            top = mine & outer
            out[label] = SpanStats(int(top.sum()), float(dur[top].sum()),
                                   float(self_s[mine].sum()))
        return out

    def child_time(self, child: str, parent_name: str) -> float:
        """Total time of `child` spans whose direct parent is a `parent_name` span."""
        if child not in self._ids or parent_name not in self._ids:
            return 0.0
        name, start, end, parent = self._arrays()
        nested = parent >= 0
        mask = (name == self._ids[child]) & nested
        mask[mask] = name[parent[mask]] == self._ids[parent_name]
        return float((end - start)[mask].sum())

    def write(self, path):
        name, start, end, parent = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            start=start, end=end, parent=parent,
                            job=np.frombuffer(self._job, dtype=np.int64))


def layer_metrics(tracer: Tracer, results, untraced_job_s, traced_job_s) -> dict:
    """Per-layer metrics of a traced phase; values per job unless named per call.

    A layer the workload never reaches reads 0.
    """
    spans = tracer.summary()
    jobs = len(results)
    nands = sum(r.nand_count for r in results)

    def per_job(*names):
        return sum(spans[n].total_s for n in names if n in spans) / jobs

    def per_call(name, scale):
        s = spans.get(name)
        return s.total_s / s.count * scale if s and s.count else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    fileio_spans = [n for n in spans if n.startswith("fileio.")]
    circuit_s = sum(r.circuit_s for r in results)
    hom_nand = spans.get("fhe.hom_nand")
    m = {
        "harness.oracle_s": per_job("harness.oracle"),
        "harness.circuit_s": sum(r.harness_s for r in results) / jobs,
        "engine.ns_per_nand": share(circuit_s * 1e9, nands),
        "engine.fold_share": share(tracer.nand_calls - nands, tracer.nand_calls),
    }
    for size in STAGE_SIZES:
        seconds, count = tracer.stages.get(size, (0.0, 0))
        m[f"fft.stage.{size}_s"] = seconds / jobs
        m[f"fft.stage.{size}_nands"] = count / jobs
    stage_total = sum(s for s, _ in tracer.stages.values())
    m["fft.butterfly_us"] = share(stage_total * 1e6, tracer.butterflies)
    m["fft.twiddle_table_s"] = per_job("fft.twiddle_table")
    for op in ("mul_const", "add", "sub", "input_word", "read_word"):
        m[f"arith.{op}_s"] = per_job(f"arith.{op}")
    m["arith.mul_const_nand_share"] = share(tracer.mul_const_nands, nands)
    for gate in ("xor", "and", "or"):
        m[f"gates.{gate}_ms"] = per_call(f"gates.{gate}_", 1e3)
    m.update({
        "fhe.hom_nand_calls": (hom_nand.count if hom_nand else 0) / jobs,
        "fhe.hom_nand_us": per_call("fhe.hom_nand", 1e6),
        "fhe.flatten_share": share(tracer.child_time("fhe.flatten", "fhe.hom_nand"),
                                   hom_nand.total_s if hom_nand else 0.0),
        "fhe.hom_not_calls": (spans["fhe.hom_not"].count if "fhe.hom_not" in spans else 0) / jobs,
        "fhe.hom_not_us": per_call("fhe.hom_not", 1e6),
        "fhe.encrypt_bit_us": per_call("fhe.encrypt_bit", 1e6),
        "fhe.decrypt_bit_us": per_call("fhe.decrypt_bit", 1e6),
        "fhe.keygen_s": per_call("fhe.keygen", 1.0),
        "fhe.noise_margin": max(r.noise_margin for r in results),
        "fileio.write_s": per_job(*[n for n in fileio_spans if n.startswith("fileio.write_")]),
        "fileio.read_s": per_job(*[n for n in fileio_spans if n.startswith("fileio.read_")]),
        "fileio.bytes": sum(r.container_bytes for r in results) / jobs,
    })
    for step in STEPS:
        m[f"cli.{step}_s"] = per_job(f"cli.{step}")
    m["result.mean_error"] = statistics.fmean(
        [r.mean_error for r in results if r.mean_error is not None] or [0.0])
    m["result.bound_ratio"] = max(r.bound_ratio for r in results)
    m["error_model.nand_cost_ratio"] = share(nands, sum(r.nand_ceiling for r in results))
    m["trace.overhead_s"] = traced_job_s - untraced_job_s
    return m


def format_summary(tracer: Tracer) -> str:
    """Text table of every span name: calls, inclusive and self seconds."""
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1].self_s)
    width = max([len(n) for n, _ in rows] + [4])
    lines = [f"{'span':<{width}}  {'calls':>9}  {'total_s':>10}  {'self_s':>10}"]
    for label, s in rows:
        lines.append(f"{label:<{width}}  {s.count:>9}  {s.total_s:>10.4f}  {s.self_s:>10.4f}")
    return "\n".join(lines)
