"""The benchmark's four workloads.

Each workload draws its inputs from the run seed, times one job at a time
through the package's public interfaces, and checks every output against
an independent reference outside the timed region.  A job returns a
``JobResult``; ``check`` turns the raw output into counts and errors.

Jobs take a ``span`` callable (name -> context manager).  Untraced runs
pass ``no_span``; the traced run passes ``Tracer.span`` so the calls the
benchmark itself makes into a module are recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fhefft import cli, fileio, gates, harness
from fhefft.arith import FixedFormat
from fhefft.engine import CleartextEngine, FheEngine
from fhefft.error_model import GateCostModel, nand_cost
from fhefft.errors import FhefftError
from fhefft.fft import fft_1d, input_signal, read_signal
from fhefft.fhe import DEFAULT_PARAMS, GswScheme


def no_span(_name):
    return contextlib.nullcontext()


def derive_seed(*keys) -> int:
    """A 63-bit seed that depends on every key (run seed, job, size...)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0] >> 1)


def fft_ceiling(width: int, m_points: int) -> int:
    """error_model's worst-case NAND count of one M-point transform."""
    return nand_cost(GateCostModel(fixed_width=width, ct_side=1,
                                   signal_len=m_points, signal_total=m_points), "fft")


@dataclass
class JobResult:
    """What one job did, measured outside the timed region where possible.

    bound_ratio is observed error over its guaranteed bound: max_error /
    error_bound for spectra, decryption noise / (q/8) for gate outputs.
    """

    nand_count: int
    nand_depth: int
    attempted: int
    failed: int
    bound_ratio: float
    mean_error: float | None = None  # spectra only
    circuit_s: float = 0.0  # time spent evaluating the circuit
    harness_s: float = 0.0  # the harness's own wall_time
    nand_ceiling: int = 0  # nand_cost over the job's transforms
    container_bytes: int = 0  # EFT1 bytes written (pipeline only)
    noise_margin: float = 0.0  # decryption noise / (q/8) (noisy preset only)


class _EngineLog:
    """Records the CleartextEngines the harness builds, for their depth.

    The harness reports NAND counts but not depth; swapping its
    ``CleartextEngine`` name for a recording subclass reads the depth
    without touching the per-gate path.
    """

    def __init__(self):
        self.engines = []

    @contextlib.contextmanager
    def watch(self):
        log = self.engines

        class Recording(CleartextEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                log.append(self)

        self.engines.clear()
        saved = harness.CleartextEngine
        harness.CleartextEngine = Recording
        try:
            yield
        finally:
            harness.CleartextEngine = saved

    def max_depth(self) -> int:
        if not self.engines:
            raise RuntimeError("the harness built no CleartextEngine; depth unknown")
        return max(e.max_depth for e in self.engines)


def _oracle_spot_check(rng, shape) -> int:
    """Number of random inputs on which the harness oracle disagrees with numpy."""
    x = rng.uniform(0, 1, shape) + 1j * rng.uniform(0, 1, shape)
    if len(shape) == 1:
        ours, ref = np.array(harness.reference_fft(x)), np.fft.fft(x)
    else:
        ours, ref = harness.reference_fft2d(x), np.fft.fft2(x)
    return int(not np.allclose(ours, ref, rtol=0, atol=1e-9 * shape[0] * len(shape)))


def _spectrum_result(reports, engines, spot_failures, spot_checks, ceiling):
    """JobResult of harness reports; a size over its bound fails every trial."""
    attempted = sum(r.trials for r in reports) + spot_checks
    failed = sum(r.trials for r in reports if not r.max_error <= r.error_bound)
    total = sum(r.total_error for r in reports)
    count = sum(2 * r.trials * int(np.prod(r.size)) for r in reports)
    wall = sum(r.wall_time for r in reports)
    return JobResult(
        nand_count=sum(r.nand_count for r in reports),
        nand_depth=engines.max_depth(), attempted=attempted,
        failed=failed + spot_failures,
        bound_ratio=max(r.max_error / r.error_bound for r in reports),
        mean_error=total / count,
        circuit_s=wall, harness_s=wall, nand_ceiling=ceiling)


class Table1Clear:
    """Table 1: the 1D harness at M = 8..128, 100 trials each, 32.16, cleartext."""

    name = "table1-clear"
    calibration = "interp"  # calibrate.py kernel matching the job's hot path
    accuracy_jobs = 1
    fmt = FixedFormat(32, 16)

    def __init__(self, sizes=(8, 16, 32, 64, 128), trials=100):
        self.sizes, self.trials = tuple(sizes), trials

    def setup(self, seed, workdir):
        return {"seed": seed, "engines": _EngineLog()}

    def prepare(self, state, i):
        # the harness draws its signals from a seed; one per size and job
        return {m: derive_seed(state["seed"], i, m) for m in self.sizes}

    def job(self, state, seeds, span):
        reports = []
        with state["engines"].watch(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for m, s in seeds.items():
                with span("harness.run_1d_experiment"):
                    reports.append(harness.run_1d_experiment(
                        m, fmt=self.fmt, trials=self.trials, seed=s))
        return reports

    def check(self, state, seeds, reports):
        rng = np.random.default_rng(derive_seed(*seeds.values()))
        spot = sum(_oracle_spot_check(rng, (m,)) for m in self.sizes)
        ceiling = sum(fft_ceiling(self.fmt.total_bits, m) for m in self.sizes)
        return _spectrum_result(reports, state["engines"], spot, len(self.sizes), ceiling)


class Image2dClear:
    """Criterion 6: the 2D harness on 10 random 16x16 images, 32.16, cleartext."""

    name = "image2d-clear"
    calibration = "interp"
    accuracy_jobs = 1
    fmt = FixedFormat(32, 16)

    def __init__(self, images=10, shape=(16, 16)):
        self.images, self.shape = images, tuple(shape)

    def setup(self, seed, workdir):
        return {"seed": seed, "engines": _EngineLog()}

    def prepare(self, state, i):
        rng = np.random.default_rng(derive_seed(state["seed"], i))
        return rng.uniform(0, 1, (self.images, *self.shape))

    def job(self, state, stack, span):
        with state["engines"].watch(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with span("harness.run_2d_experiment"):
                return [harness.run_2d_experiment(stack, shape=self.shape, fmt=self.fmt)]

    def check(self, state, stack, reports):
        rng = np.random.default_rng(derive_seed(state["seed"], 1 << 32))
        spot = _oracle_spot_check(rng, self.shape)
        rows, cols = self.shape
        ceiling = (rows * fft_ceiling(self.fmt.total_bits, cols)
                   + cols * fft_ceiling(self.fmt.total_bits, rows))
        return _spectrum_result(reports, state["engines"], spot, 1, ceiling)


STEPS = ("keygen", "encrypt", "fft", "decrypt", "verify")


class PipelineExact:
    """The client/server CLI pipeline on the exact preset, in-process.

    keygen -> encrypt (16.8, M = 8) -> fft -> decrypt -> verify, one
    signal per job.  Errors are averaged over the first ``accuracy_jobs``
    jobs, so they do not depend on how many jobs fit in a run.
    """

    name = "pipeline-exact"
    calibration = "nand51"
    fmt = FixedFormat(16, 8)

    def __init__(self, m_points=8, accuracy_jobs=8):
        self.m_points, self.accuracy_jobs = m_points, accuracy_jobs

    def setup(self, seed, workdir):
        return {"seed": seed, "dir": Path(workdir)}

    def prepare(self, state, i):
        rng = np.random.default_rng(derive_seed(state["seed"], i))
        values = rng.uniform(0, 1, self.m_points) + 1j * rng.uniform(0, 1, self.m_points)
        d = Path(tempfile.mkdtemp(prefix=f"job{i}-", dir=state["dir"]))
        plain = d / "signal.txt"
        fileio.write_signal_text(plain, values)
        key_seed, enc_seed = (str(derive_seed(state["seed"], i, k)) for k in (1, 2))
        argv = {
            "keygen": ["keygen", "--preset", "exact", "--seed", key_seed,
                       "--out", str(d / "keys.json")],
            "encrypt": ["encrypt", str(plain), "--keys", str(d / "keys.json"),
                        "--bits", str(self.fmt.total_bits),
                        "--frac", str(self.fmt.frac_bits),
                        "--seed", enc_seed, "--out", str(d / "in.eft")],
            "fft": ["fft", str(d / "in.eft"), "--out", str(d / "out.eft"), "--stats"],
            "decrypt": ["decrypt", str(d / "out.eft"), "--keys", str(d / "keys.json"),
                        "--out", str(d / "spectrum.txt")],
            "verify": ["verify", str(plain), str(d / "spectrum.txt")],
        }
        return {"dir": d, "argv": argv}

    def job(self, state, inputs, span):
        codes, outputs, times = {}, {}, {}
        for step in STEPS:
            buf = io.StringIO()
            with span(f"cli.{step}"), contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                t0 = time.perf_counter()
                try:
                    codes[step] = cli.main(inputs["argv"][step])
                except Exception as exc:  # a traceback is a failed step, not a crash
                    print(f"{type(exc).__name__}: {exc}")
                    codes[step] = -1
                times[step] = time.perf_counter() - t0
            outputs[step] = buf.getvalue()
            if codes[step] != 0:
                break
        return codes, outputs, times

    def check(self, state, inputs, raw):
        codes, outputs, times = raw
        d = inputs["dir"]
        ok = {step: codes.get(step) == 0 for step in STEPS}
        stats = _last_json(outputs.get("fft", ""))
        report = _last_json(outputs.get("verify", ""), whole=True)
        if ok["decrypt"]:
            # criterion 8: decrypted spectrum bit-identical to the cleartext circuit
            plain, _ = fileio.read_signal_text(d / "signal.txt")
            spectrum, _ = fileio.read_signal_text(d / "spectrum.txt")
            engine = CleartextEngine(batch_size=1)
            clear = read_signal(engine, fft_1d(input_signal(engine, plain, self.fmt)))[0]
            ok["decrypt"] = bool(np.array_equal(spectrum, clear))
        if ok["verify"]:
            ok["verify"] = report is not None and report["max_error"] <= report["error_bound"]
        if ok["fft"]:
            ok["fft"] = stats is not None
        ratio = report["max_error"] / report["error_bound"] if report else float("inf")
        return JobResult(
            nand_count=stats["nand_count"] if stats else 0,
            nand_depth=stats["max_depth"] if stats else 0,
            attempted=len(STEPS), failed=sum(not v for v in ok.values()),
            bound_ratio=ratio, mean_error=report["mean_error"] if report else None,
            circuit_s=times.get("fft", 0.0),
            nand_ceiling=fft_ceiling(self.fmt.total_bits, self.m_points),
            container_bytes=sum((d / f).stat().st_size
                                for f in ("in.eft", "out.eft") if (d / f).exists()))


def _last_json(text: str, whole: bool = False):
    """The JSON object a CLI step printed (its last line, or all of it)."""
    candidates = [text] if whole else text.strip().splitlines()[-1:]
    for c in candidates:
        try:
            value = json.loads(c)
        except json.JSONDecodeError:
            continue
        if isinstance(value, dict):
            return value
    return None


GATES = (("xor_", lambda a, b: a ^ b), ("and_", lambda a, b: a & b),
         ("or_", lambda a, b: a | b))


class GatesDefault:
    """Random bit pairs through XOR, AND and OR on the noisy default preset."""

    name = "gates-default"
    calibration = "nand261"

    def __init__(self, pairs=100, accuracy_jobs=4):
        self.pairs, self.accuracy_jobs = pairs, accuracy_jobs

    def setup(self, seed, workdir):
        scheme = GswScheme(DEFAULT_PARAMS)
        return {"seed": seed, "scheme": scheme, "keys": scheme.keygen(seed=seed)}

    def prepare(self, state, i):
        rng = np.random.default_rng(derive_seed(state["seed"], i))
        bits = rng.integers(0, 2, (self.pairs, 2))
        return {"bits": [(int(a), int(b)) for a, b in bits],
                "rng": np.random.default_rng(derive_seed(state["seed"], i, 1))}

    def job(self, state, inputs, span):
        scheme, keys = state["scheme"], state["keys"]
        engine = FheEngine(scheme, keys=keys, rng=inputs["rng"])
        out, gate_s = [], 0.0
        for a, b in inputs["bits"]:
            ha, hb = engine.input_bit(a), engine.input_bit(b)
            for name, _ in GATES:
                t0 = time.perf_counter()
                with span(f"gates.{name}"):
                    h = getattr(gates, name)(ha, hb)
                gate_s += time.perf_counter() - t0
                try:
                    out.append(scheme.decrypt_bit_with_noise(
                        keys.secret_key, engine.export_ct(h)))
                except FhefftError:
                    out.append(None)
        return out, engine.stats, gate_s

    def check(self, state, inputs, raw):
        out, stats, gate_s = raw
        truth = [fn(a, b) for a, b in inputs["bits"] for _, fn in GATES]
        failed = sum(got is None or got[0] != want for got, want in zip(out, truth))
        threshold = DEFAULT_PARAMS.q / 8
        margin = max((got[1] / threshold for got in out if got is not None),
                     default=float("inf"))
        return JobResult(nand_count=stats.nand_count, nand_depth=stats.max_depth,
                         attempted=len(truth), failed=failed, bound_ratio=margin,
                         circuit_s=gate_s, noise_margin=margin)


WORKLOADS = {w.name: w for w in (Table1Clear, Image2dClear, PipelineExact, GatesDefault)}
