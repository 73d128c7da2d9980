"""Experiment harness: circuit FFT runs measured against a float oracle.

Random signals (components uniform in [0, 1]) are transformed by the
bit-level circuits and compared point-by-point against an independent
double-precision radix-2 implementation (not the circuit path, and not
numpy's FFT, which the test suite uses to validate the oracle itself).
The oracle transforms every trial of an experiment in one call, each
butterfly stage as whole-array arithmetic over all trials.
Reports aggregate absolute per-component errors over all trials together
with the analytical bound for the run.

Both experiments run one body (``_experiment``) on the signals they
draw.  On the cleartext backend all trials of one experiment ride the
engine's batch lanes, so the circuit is built and counted exactly once.
FHE runs are size-guarded: gate costs grow with M * log M * F^2 * log F
times an (N x N) by (N x (n+1)) matrix product per NAND, so only small
fully-encrypted transforms are sensible on a desk machine.
"""

from __future__ import annotations

import cmath
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .arith import FixedFormat
from .engine import CleartextEngine, FheEngine
from .error_model import ErrorParams, fft2d_error_bound, fft_error_bound, signal_headroom
from .errors import UsageError, _is_count, _is_pow2
from .fft import _sides, fft_1d, fft_2d, input_signal, read_signal
from .fhe import EXACT_PARAMS, GswScheme

DEFAULT_FORMAT = FixedFormat(32, 16)
MAX_FHE_POINTS = 8  # size guard on encrypted runs, see the module docstring


@dataclass(frozen=True)
class ErrorReport:
    """Aggregated error statistics of one experiment.

    total_error sums |error| over every real component seen (2M per
    trial), mean_error divides by that count, variance and std_dev
    describe the same population, and error_bound is the analytical
    processing bound every component must stay under.  nand_count is the
    gate cost of one transform circuit.
    """

    size: object
    trials: int
    total_error: float
    mean_error: float
    variance: float
    std_dev: float
    max_error: float
    error_bound: float
    nand_count: int
    wall_time: float
    backend: str

    def as_dict(self) -> dict:
        return asdict(self)


# -- independent oracle ------------------------------------------------------

def reference_fft(values) -> np.ndarray:
    """Unnormalized forward DFT, double precision, radix-2 iterative.

    ``values`` is one signal of shape (M,) or a batch of shape (trials, M);
    every row is transformed with the same butterflies, all rows at once.
    Overflow gives inf or NaN components, as complex Python arithmetic does.
    """
    x = np.asarray(values, dtype=complex)
    m = x.shape[-1]
    if not _is_pow2(m):
        raise UsageError(f"oracle needs a power-of-two length, got {m}")
    width = m.bit_length() - 1
    out = np.empty(x.shape, dtype=complex)  # C order: the reshape below is a view
    out[..., [int(f"{i:0{width}b}"[::-1], 2) if width else 0 for i in range(m)]] = x
    size = 2
    while size <= m:
        half = size // 2
        w = np.array([cmath.exp(-2j * cmath.pi * k / size) for k in range(half)])
        # out[..., start + k] and out[..., start + k + half] for every start
        pairs = out.reshape(*x.shape[:-1], m // size, 2, half)
        with np.errstate(over="ignore", invalid="ignore"):
            # t = w * x_j term by term, rounded as complex Python arithmetic
            # rounds it (a numpy complex multiply may round differently)
            xj = pairs[..., 1, :]
            t = np.empty_like(xj)
            t.real = w.real * xj.real - w.imag * xj.imag
            t.imag = w.real * xj.imag + w.imag * xj.real
            pairs[..., 1, :] = pairs[..., 0, :] - t
            pairs[..., 0, :] += t
        size *= 2
    return out


def reference_fft2d(image) -> np.ndarray:
    """Row-column composition of the 1D oracle over the last two axes."""
    rows = reference_fft(np.asarray(image, dtype=complex))
    return reference_fft(rows.swapaxes(-1, -2)).swapaxes(-1, -2)


def reference(plain, dims, frac_bits: int, x_bound: float | None = None) -> tuple:
    """(oracle spectra, signal bound, error bound) of signals ``plain``
    (..., points) of ``dims`` (2D row major) transformed at ``frac_bits``.
    Unless ``x_bound`` is given, a 1D signal is bounded by its largest |Re|
    or |Im|, a 2D one by its largest modulus: the 2D bound hands
    ``cols * x_bound`` to its column pass, sound for complex input only
    with the modulus."""
    plain = np.asarray(plain, dtype=complex)
    delta = 2.0 ** -frac_bits
    if isinstance(dims, tuple):
        rows, cols = dims
        x_bound = float(np.abs(plain).max()) if x_bound is None else x_bound
        oracle = reference_fft2d(plain.reshape(*plain.shape[:-1], rows, cols))
        return oracle.reshape(plain.shape), x_bound, fft2d_error_bound(rows, cols, delta, x_bound)
    if x_bound is None:
        x_bound = float(max(np.abs(plain.real).max(), np.abs(plain.imag).max()))
    return reference_fft(plain), x_bound, fft_error_bound(ErrorParams(delta, x_bound, int(dims)))


# -- experiments --------------------------------------------------------------

def error_stats(spectra: np.ndarray, oracle: np.ndarray) -> dict:
    """Statistics of |error| over every real and imaginary component."""
    diff = spectra - oracle
    errs = np.abs(np.concatenate([diff.real.ravel(), diff.imag.ravel()]))
    return {
        "total_error": float(errs.sum()),
        "mean_error": float(errs.mean()),
        "variance": float(errs.var()),
        "std_dev": float(errs.std()),
        "max_error": float(errs.max()),
    }


def _check_count(name, n):
    if not _is_count(n):
        raise UsageError(f"{name} must be an integer >= 1, got {n!r}")


def run_1d_experiment(m_points: int, fmt: FixedFormat = DEFAULT_FORMAT,
                      trials: int = 100, seed: int = 0,
                      backend: str = "clear") -> ErrorReport:
    """Transform `trials` random signals of length m_points and report errors."""
    _check_count("trials", trials)
    _, m_points = _sides((1, m_points))  # a one-row image
    rng = np.random.default_rng(seed)
    signals = rng.uniform(0, 1, (trials, m_points)) + \
        1j * rng.uniform(0, 1, (trials, m_points))
    return _experiment(signals, m_points, fmt, backend, seed, rng)


def run_2d_experiment(images=10, shape=(16, 16), fmt: FixedFormat = DEFAULT_FORMAT,
                      seed: int = 0) -> ErrorReport:
    """Transform grayscale images (values in [0, 1], zero imaginary part).

    ``images`` is a count of random images to draw, or an iterable of 2D
    arrays; all must share ``shape``, whose sides are powers of two.
    """
    rows, cols = _sides(tuple(shape) if np.iterable(shape) else shape)
    rng = np.random.default_rng(seed)
    if not np.iterable(images):  # a count of random images
        _check_count("images", images)
        stack = rng.uniform(0, 1, (images, rows, cols))
    else:
        stack = [np.asarray(img, dtype=float) for img in images]
        _check_count("images", len(stack))
        if any(img.shape != (rows, cols) for img in stack):
            raise UsageError(f"images of shapes {sorted({img.shape for img in stack})}, "
                             f"expected all {rows}x{cols}")
        stack = np.array(stack)
    signals = stack.reshape(len(stack), rows * cols).astype(complex)
    return _experiment(signals, (rows, cols), fmt, "clear", seed, rng)


def _experiment(signals, dims, fmt, backend, seed, rng) -> ErrorReport:
    """The report of each row of ``signals`` (trials, points) transformed
    as ``dims`` on ``backend``; under FHE each is encrypted with ``rng``,
    under the ``exact`` keys of ``seed``, on an engine of its own."""
    oracle, x_bound, bound = reference(signals, dims, fmt.frac_bits)
    points = signals.shape[1]
    ratio = signal_headroom(fmt.total_bits, fmt.frac_bits, points, x_bound)
    if ratio >= 0.5:
        warnings.warn(
            f"signal may overflow the {fmt.total_bits}.{fmt.frac_bits} format: "
            f"worst-case magnitude uses {ratio:.0%} of the integer range",
            stacklevel=3)  # the caller of run_1d_experiment or run_2d_experiment
    transform = fft_2d if isinstance(dims, tuple) else fft_1d

    start = time.perf_counter()
    if backend == "clear":
        engine = CleartextEngine(batch_size=len(signals))
        spectra = read_signal(engine, transform(input_signal(engine, signals, fmt, dims)))
    elif backend == "fhe":
        if points > MAX_FHE_POINTS:
            raise UsageError(
                f"encrypted transform of {points} points refused: gate cost "
                f"is infeasible at desk scale (limit {MAX_FHE_POINTS})")
        scheme = GswScheme(EXACT_PARAMS)
        keys = scheme.keygen(seed=seed)
        rows = []
        for sig in signals:
            engine = FheEngine(scheme, keys=keys, rng=rng)
            rows.append(read_signal(engine, transform(input_signal(engine, sig, fmt, dims)))[0])
        spectra = np.array(rows)
    else:
        raise UsageError(f"unknown backend {backend!r}")
    elapsed = time.perf_counter() - start

    return ErrorReport(size=dims, trials=len(signals), error_bound=bound,
                       nand_count=engine.nand_count, wall_time=elapsed,
                       backend=backend, **error_stats(spectra, oracle))


def format_report_table(reports) -> str:
    """Aligned text table of reports, one row per signal size."""
    headers = ("Size", "Trials", "Total Error", "Mean Error", "Variance",
               "Std Dev", "Bound", "NANDs", "Time [s]")
    rows = [headers]
    for r in reports:
        size = f"{r.size[0]}x{r.size[1]}" if isinstance(r.size, tuple) else str(r.size)
        rows.append((size, str(r.trials), f"{r.total_error:.4g}",
                     f"{r.mean_error:.4g}", f"{r.variance:.4g}",
                     f"{r.std_dev:.4g}", f"{r.error_bound:.4g}",
                     str(r.nand_count), f"{r.wall_time:.2f}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
