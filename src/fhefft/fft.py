"""Radix-2 decimation-in-time FFT over fixed-point complex signals.

The driver runs entirely on bit-engine handles: a forward, unnormalized
transform of a power-of-two signal as log2(M) stages of M/2 butterflies
after an index bit-reversal.  Twiddle factors are public constants
quantized to the word format (round to nearest), so each butterfly is
four constant multiplications plus one subtraction and one addition for
t = W * x_j, followed by x_i + t and x_i - t: six real sequences of
word arithmetic per butterfly.

The index permutation touches no gates; only butterflies cost NANDs.
Two-dimensional transforms decompose into row passes then column passes
at the same word format.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .arith import FixedFormat, FixedWord, add, decode, encode, input_word, mul_const, read_word, sub
from .errors import UsageError


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ComplexFixed:
    """One signal point: real and imaginary words sharing a format."""

    re: FixedWord
    im: FixedWord

    def __post_init__(self):
        if self.re.fmt != self.im.fmt:
            raise UsageError("real and imaginary parts must share a format")

    @property
    def fmt(self) -> FixedFormat:
        return self.re.fmt


@dataclass(frozen=True)
class SignalBuffer:
    """A 1D signal (dims = M) or row-major 2D image (dims = (rows, cols))."""

    points: tuple
    dims: int | tuple[int, int]

    def __post_init__(self):
        if isinstance(self.dims, int):
            total = self.dims
            if not _is_pow2(total):
                raise UsageError(f"signal length {total} is not a power of two")
        else:
            rows, cols = self.dims
            if not (_is_pow2(rows) and _is_pow2(cols)):
                raise UsageError(f"image dims {self.dims} must be powers of two")
            total = rows * cols
        if len(self.points) != total:
            raise UsageError(f"{len(self.points)} points for dims {self.dims}")


class TwiddleTable:
    """Quantized twiddle constants W = exp(-2*pi*i*k/size) for all stages.

    Values are stored rounded to the word format's grid, which is exactly
    what ``mul_const`` will consume; components never exceed 1 in
    magnitude before quantization.
    """

    def __init__(self, m_points: int, fmt: FixedFormat):
        if not _is_pow2(m_points):
            raise UsageError(f"signal length {m_points} is not a power of two")
        self.m_points = m_points
        self.fmt = fmt
        self._entries: dict[tuple[int, int], tuple[float, float]] = {}
        size = 2
        while size <= m_points:
            for k in range(size // 2):
                w = cmath.exp(-2j * cmath.pi * k / size)
                self._entries[(size, k)] = (
                    decode(encode(w.real, fmt), fmt),
                    decode(encode(w.imag, fmt), fmt),
                )
            size *= 2
        # digit-cancellation guard: quantization must not move any component
        # across the representable range
        assert all(abs(re) <= 1 and abs(im) <= 1
                   for re, im in self._entries.values())

    def twiddle(self, size: int, k: int) -> tuple[float, float]:
        return self._entries[(size, k)]

    def w_sum(self) -> float:
        """Summed twiddle magnitudes over every butterfly application.

        Each distinct (size, k) twiddle drives m_points/size butterflies in
        its stage.  Magnitudes are clipped to 1 so rounding cannot push the
        sum past the (M/2) * log2(M) ceiling.
        """
        total = 0.0
        for (size, _k), (re, im) in self._entries.items():
            total += (self.m_points // size) * min(1.0, abs(complex(re, im)))
        return total


def bit_reverse_permute(signal: SignalBuffer) -> SignalBuffer:
    """Reorder point i to index reverse_bits(i); a free plaintext shuffle."""
    if not isinstance(signal.dims, int):
        raise UsageError("bit reversal applies to 1D signals")
    m = signal.dims
    width = m.bit_length() - 1
    out = [None] * m
    for i, pt in enumerate(signal.points):
        rev = int(f"{i:0{width}b}"[::-1], 2) if width else 0
        out[rev] = pt
    return SignalBuffer(tuple(out), m)


def butterfly(xi: ComplexFixed, xj: ComplexFixed,
              w: tuple[float, float]) -> tuple[ComplexFixed, ComplexFixed]:
    """(x_i + W*x_j, x_i - W*x_j) for a plaintext twiddle W."""
    wre, wim = w
    t_re = sub(mul_const(xj.re, wre), mul_const(xj.im, wim))
    t_im = add(mul_const(xj.re, wim), mul_const(xj.im, wre))
    hi = ComplexFixed(add(xi.re, t_re), add(xi.im, t_im))
    lo = ComplexFixed(sub(xi.re, t_re), sub(xi.im, t_im))
    return hi, lo


def fft_1d(signal: SignalBuffer, table: TwiddleTable | None = None,
           on_butterfly=None) -> SignalBuffer:
    """Forward transform of a 1D buffer; log2(M) stages of M/2 butterflies.

    Butterflies run one at a time, stage by stage.  ``on_butterfly(size, i, j)``
    is invoked right after each butterfly (instrumentation hook).
    """
    if not isinstance(signal.dims, int):
        raise UsageError("fft_1d expects a 1D signal")
    m = signal.dims
    if m == 1:
        return signal
    if table is None:
        table = TwiddleTable(m, signal.points[0].fmt)
    elif table.m_points != m:
        raise UsageError(f"twiddle table for {table.m_points} points used on {m}")
    pts = list(bit_reverse_permute(signal).points)

    size = 2
    while size <= m:
        half = size // 2
        for start in range(0, m, size):
            for k in range(half):
                i, j = start + k, start + k + half
                pts[i], pts[j] = butterfly(pts[i], pts[j], table.twiddle(size, k))
                if on_butterfly is not None:
                    on_butterfly(size, i, j)
        size *= 2
    return SignalBuffer(tuple(pts), m)


def fft_2d(image: SignalBuffer, on_butterfly=None) -> SignalBuffer:
    """Row-column transform of a 2D buffer at a fixed word format."""
    if isinstance(image.dims, int):
        raise UsageError("fft_2d expects a 2D signal")
    rows, cols = image.dims
    fmt = image.points[0].fmt
    row_table = TwiddleTable(cols, fmt)
    col_table = TwiddleTable(rows, fmt)
    pts = list(image.points)
    for r in range(rows):
        row = SignalBuffer(tuple(pts[r * cols:(r + 1) * cols]), cols)
        pts[r * cols:(r + 1) * cols] = fft_1d(row, row_table, on_butterfly).points
    for c in range(cols):
        col = SignalBuffer(tuple(pts[r * cols + c] for r in range(rows)), rows)
        out = fft_1d(col, col_table, on_butterfly).points
        for r in range(rows):
            pts[r * cols + c] = out[r]
    return SignalBuffer(tuple(pts), image.dims)


# -- signal construction and readout ---------------------------------------

def input_signal(engine, values, fmt: FixedFormat,
                 dims: int | tuple[int, int] | None = None) -> SignalBuffer:
    """Encode complex values into variable words (one signal per lane).

    ``values`` is array-like of shape (M,) to broadcast one signal across
    all lanes, or (batch, M) with one signal per lane.
    """
    arr = np.atleast_2d(np.asarray(values, dtype=complex))
    if arr.shape[0] == 1 and engine.batch_size > 1:
        arr = np.repeat(arr, engine.batch_size, axis=0)
    if arr.shape[0] != engine.batch_size:
        raise UsageError(f"{arr.shape[0]} signals for {engine.batch_size} lanes")
    points = []
    for col in range(arr.shape[1]):
        re = input_word(engine, list(arr[:, col].real), fmt)
        im = input_word(engine, list(arr[:, col].imag), fmt)
        points.append(ComplexFixed(re, im))
    return SignalBuffer(tuple(points), dims if dims is not None else arr.shape[1])


def read_signal(engine, signal: SignalBuffer) -> np.ndarray:
    """Decoded complex array of shape (batch, M) (needs key material on FHE)."""
    cols = []
    for pt in signal.points:
        res = read_word(engine, pt.re)
        ims = read_word(engine, pt.im)
        cols.append([complex(r, i) for r, i in zip(res, ims)])
    return np.array(cols, dtype=complex).T
