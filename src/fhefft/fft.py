"""Radix-2 decimation-in-time FFT over fixed-point complex signals.

A forward, unnormalized transform of a power-of-two signal as log2(M)
stages of M/2 butterflies after an index bit-reversal.  Twiddle factors
are public constants quantized to the word format (round to nearest), so
each butterfly is four constant multiplications plus one subtraction and
one addition for t = W * x_j, followed by x_i + t and x_i - t: six real
sequences of word arithmetic per butterfly.  A stage compiles them as two
word-op phases: the products (``arith.mul_const``), then the sums
(``arith.butterfly_sums``, the two steps of adds and subtracts recorded
as one netlist, whose second ripples start as soon as the first ones'
low bits are ready).

A transform runs as a compiled plan (``plan``).  The first transform of
a key (engine parameters, wire size, piece bound, format, dims, and the
constants and depths, or levels and noise estimates, of the input wires)
compiles it: the bit reversal, and each stage's butterflies, with the
``TwiddleTable`` of the key's size and format, as word operations on
compiled words, which the plan compiler groups by netlist
(``netlist.word_op``), runs side by side as ``netlist.union`` pieces
within the engine's workspace bound, and places in a register whose
slots are reused once dead.  The plan is kept in ``netlist.PLANS``.
Every transform, the first included, then replays it: one gather,
evaluation and scatter per piece, with each stage's NANDs and depth added
to the engine's after it runs.  The gates, counts, depths and output bits
are those of the butterflies built gate by gate from ``arith.add``,
``arith.sub`` and ``arith.mul_const``, one butterfly at a time (the
reference the tests hold the plans to).

The index permutation touches no gates; only butterflies cost NANDs.
``fft_1d`` transforms one signal.  ``fft_2d`` transforms all rows of an
image in one pass, then all columns in a second, at the same word format,
in one plan.

A ``SignalBuffer`` is one wire array of shape (points, 2, bits) from
encoding to decoding: ``input_signal`` encodes every word of every lane in
one ``arith.encode_bits`` call (``arith._grid``'s value rule) and makes its
wires in one ``engine.input_wires`` call, the transforms replay their plan
on the array and wrap its result, and ``read_signal`` reads it back, once
``_Engine._own`` finds it the engine's, through ``engine.read_wires`` and
``arith.decode_bits``.  The array holds each engine's wire records (lane
bytes and depths in cleartext, ciphertext words, levels and noise
estimates under FHE), which the EFT1 containers (``fileio``) write and
read as they are.  Bit handles (``SignalBuffer.points`` and ``bits``) are
made only when asked for.  ``_is_pow2`` is the one power-of-two predicate,
also of ``cli``, and ``_sides`` the one shape rule, also of ``fileio``,
``harness`` and ``cli``: a 1D signal of M points is the one-row image
(1, M), whose column pass compiles no stage.
"""

from __future__ import annotations

import cmath
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import FixedFormat, FixedWord, _numbers, decode_bits, encode_bits, encode_int
# not called here, but bench/tracing.py wraps these names in this module
from .arith import add, input_word, mul_const, read_word, sub  # noqa: F401
from .errors import UsageError
from .netlist import PLANS
from .plan import Compiler, replay


def _is_pow2(n) -> bool:
    """Whether ``n`` is an integer power of two (a bool is not)."""
    return isinstance(n, (int, np.integer)) and n is not True and n >= 1 and not n & (n - 1)


def _sides(dims) -> tuple[int, int]:
    """(rows, cols) of signal dims: an int M is (1, M), a pair is itself,
    and each side must be ``_is_pow2``; anything else raises ``UsageError``."""
    sides = (1, dims) if isinstance(dims, (int, np.integer)) else dims
    if not (isinstance(sides, tuple) and len(sides) == 2 and all(map(_is_pow2, sides))):
        raise UsageError(f"signal dims {dims!r} must be a power of two M or a pair of them")
    return int(sides[0]), int(sides[1])


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


@dataclass(frozen=True, eq=False)
class SignalBuffer:
    """A 1D signal (dims = M) or row-major 2D image (dims = (rows, cols)), as Python ints.

    The signal is one wire array of ``engine`` of shape (points, 2, bits):
    points in order, each point's real word before its imaginary word, each
    word's bits LSB first (the EFT1 payload order).  ``points`` and ``bits``
    are handle views of it, made on first use; ``engine.wires`` of handles
    in that layout, reshaped, builds a signal back.
    """

    engine: object
    fmt: FixedFormat
    dims: int | tuple[int, int]
    wires: np.ndarray

    def __post_init__(self):
        rows, cols = _sides(self.dims)
        object.__setattr__(self, "dims", (rows, cols) if isinstance(self.dims, tuple) else cols)
        if self.wires.shape != (rows * cols, 2, self.fmt.total_bits):
            raise UsageError(f"wires of shape {self.wires.shape} for dims {self.dims} "
                             f"at {self.fmt.total_bits} bits")

    def __eq__(self, other):
        if not isinstance(other, SignalBuffer):
            return NotImplemented
        return (self.engine is other.engine and self.fmt == other.fmt
                and self.dims == other.dims
                and all(np.array_equal(self.wires[f], other.wires[f])
                        for f in self.wires.dtype.names))

    @cached_property
    def points(self) -> tuple[ComplexFixed, ...]:
        """The points as words of bit handles."""
        handles = self.engine.handles(self.wires.reshape(-1))
        width = self.fmt.total_bits
        words = [FixedWord(tuple(handles[k:k + width]), self.fmt)
                 for k in range(0, len(handles), width)]
        return tuple(ComplexFixed(re, im) for re, im in zip(words[::2], words[1::2]))

    def bits(self) -> list:
        """Every bit handle, in the layout of ``wires``."""
        return [h for pt in self.points for word in (pt.re, pt.im) for h in word.bits]


class TwiddleTable:
    """Quantized twiddle constants W = exp(-2*pi*i*k/size) for all stages.

    Values are stored rounded to the word format's grid (``encode_int``
    over the scale), which is exactly what ``mul_const`` will consume;
    components never exceed 1 in magnitude before quantization.
    """

    def __init__(self, m_points: int, fmt: FixedFormat):
        _sides(m_points)
        self.m_points = m_points
        self.fmt = fmt
        self._entries: dict[tuple[int, int], tuple[float, float]] = {}
        size = 2
        while size <= m_points:
            for k in range(size // 2):
                w = cmath.exp(-2j * cmath.pi * k / size)
                self._entries[(size, k)] = (encode_int(w.real, fmt) / fmt.scale,
                                            encode_int(w.imag, fmt) / fmt.scale)
            size *= 2
        # digit-cancellation guard: quantization must not move any component
        # across the representable range
        assert all(abs(re) <= 1 and abs(im) <= 1
                   for re, im in self._entries.values())

    def twiddle(self, size: int, k: int) -> tuple[float, float]:
        return self._entries[(size, k)]


def _bit_reversal(m: int) -> list[int]:
    """reverse_bits(k) for k < m: entry k is the input index of output k."""
    width = m.bit_length() - 1
    return [int(f"{k:0{width}b}"[::-1], 2) if width else 0 for k in range(m)]


def fft_1d(signal: SignalBuffer, table: TwiddleTable | None = None,
           on_butterfly=None) -> SignalBuffer:
    """Forward transform of a 1D buffer; log2(M) stages of M/2 butterflies.

    ``table`` must be None: the plan always uses its key's own twiddles.
    ``on_butterfly(size, i, j)`` is invoked for each butterfly, in stage
    order, once its stage has run and its NANDs are counted
    (instrumentation hook).
    """
    if not isinstance(signal.dims, int):
        raise UsageError("fft_1d expects a 1D signal")
    if table is not None:
        raise UsageError("fft_1d takes no twiddle table: its plan uses its own")
    m = signal.dims
    on_stage = None
    if on_butterfly is not None:
        def on_stage(stage):
            half = stage.size // 2
            for base in range(0, m, stage.size):
                for k in range(half):
                    on_butterfly(stage.size, base + k, base + k + half)
    return _transform(signal, on_stage)


def fft_2d(image: SignalBuffer) -> SignalBuffer:
    """Row-column transform of a 2D buffer at a fixed word format."""
    if isinstance(image.dims, int):
        raise UsageError("fft_2d expects a 2D signal")
    return _transform(image)


def _transform(signal, on_stage=None) -> SignalBuffer:
    """The transform of a signal, by its plan (``transform_plan``)."""
    engine, fmt, dims = signal.engine, signal.fmt, signal.dims
    plan = transform_plan(engine, fmt, dims, engine.wire_meta(signal.wires))
    out = replay(engine, plan, signal.wires, on_stage)
    return SignalBuffer(engine, fmt, dims, out.reshape(signal.wires.shape))


def transform_plan(engine, fmt, dims, meta):
    """The plan in ``netlist.PLANS`` of a transform on ``engine`` of input
    wires of ``meta`` records, a pure function of its key: the engine's
    parameters and wire size, the piece bound, the format and dims (which
    ``_sides`` checks before the key is made), and a digest of ``meta``.
    The first transform of a key compiles it."""
    _sides(dims)  # the shape rule, before dims go into a key
    fits = engine.CHUNK_BYTES // engine.wire_bytes
    key = (engine.params, engine.wire_bytes, fits, fmt, dims,
           hashlib.blake2b(meta.tobytes(), digest_size=16).digest())
    plan = PLANS.get(key)
    if plan is None:
        plan = PLANS[key] = _compile(Compiler(engine.params, fmt.total_bits, fits, meta),
                                     fmt, dims)
    return plan


def _compile(comp, fmt, dims):
    """The plan of ``fft_1d`` or ``fft_2d``, with the twiddles of its key:
    every row's stages, then every column's (none for a 1D signal, the
    one-row image)."""
    rows, cols = _sides(dims)
    words = comp.inputs.reshape(rows, cols, 2)  # real and imaginary words
    grid = _stages(comp, fmt, words, TwiddleTable(cols, fmt))
    out = _stages(comp, fmt, grid.swapaxes(0, 1), TwiddleTable(rows, fmt)).swapaxes(0, 1)
    return comp.finish(out.reshape(-1))


def _stages(comp, fmt, words, table):
    """Bit reversal and radix-2 stages of every row of a (transforms, M, 2)
    array of compiled words; returns the transformed array.  Each stage
    compiles the word operations of all rows' butterflies together."""
    count, m = words.shape[:2]
    flat = words[:, _bit_reversal(m)].reshape(count * m, 2)
    size = 2
    while size <= m:
        half = size // 2
        flies = [(base + k, base + k + half, table.twiddle(size, k))
                 for base in range(0, count * m, size) for k in range(half)]
        _butterflies(comp, fmt, flat, flies)
        comp.stage(size)
        size *= 2
    return flat.reshape(count, m, 2)


def _butterflies(comp, fmt, words, flies):
    """The butterfly (x_i + W*x_j, x_i - W*x_j) of each (i, j, W) of one
    stage, in place on the compiled words of shape (points, 2) (real and
    imaginary words), as two word-op phases: the four constant products
    of W * x_j, then ``butterfly_sums`` of x_i and the products.  Each
    word's block is released once nothing reads it."""
    i = [f[0] for f in flies]
    j = [f[1] for f in flies]
    wre = [f[2][0] for f in flies]
    wim = [f[2][1] for f in flies]
    xj = words[j]
    # p = (xj.re*wre, xj.im*wim, xj.re*wim, xj.im*wre), so that
    # W * x_j = (p0 - p1, p2 + p3)
    prods = comp.word_ops("mul_const", fmt,
                          np.concatenate([xj[:, 0], xj[:, 1], xj[:, 0], xj[:, 1]])[:, None],
                          consts=wre + wim + wim + wre)
    comp.release(xj)
    xi = words[i]
    sums = comp.word_ops("butterfly_sums", fmt,
                         np.concatenate([xi, prods.reshape(4, len(flies)).T], axis=1))
    comp.release(prods)
    comp.release(xi)
    words[i], words[j] = sums[:, :2], sums[:, 2:]


# -- signal construction and readout ---------------------------------------

def input_signal(engine, values, fmt: FixedFormat,
                 dims: int | tuple[int, int] | None = None) -> SignalBuffer:
    """Encode complex values into variable words (one signal per lane).

    ``values`` is array-like of shape (M,) to broadcast one signal across
    all lanes, or (batch, M) with one signal per lane.  The whole signal
    goes through ``encode_bits`` and ``engine.input_wires`` at once, with
    the bits, range errors and encryptions of ``input_word`` on each word
    in layout order (and ``RangeError`` for an int past float64's range).
    """
    arr = np.atleast_2d(_numbers(values))
    if arr.shape[0] == 1 and engine.batch_size > 1:
        arr = np.repeat(arr, engine.batch_size, axis=0)
    if arr.ndim != 2 or arr.shape[0] != engine.batch_size:
        raise UsageError(f"signals of shape {arr.shape} for {engine.batch_size} lanes")
    # an object array's numbers (e.g. ints past float64's range) split one by one
    re, im = np.frompyfunc(lambda v: (v.real, v.imag), 1, 2)(arr) if arr.dtype == object \
        else (arr.real, arr.imag)
    parts = np.stack([re.T, im.T], axis=1)  # (points, 2, lanes)
    wires = engine.input_wires(encode_bits(parts, fmt).swapaxes(-1, -2))
    return SignalBuffer(engine, fmt, dims if dims is not None else arr.shape[1], wires)


def read_signal(engine, signal: SignalBuffer) -> np.ndarray:
    """Decoded complex array of shape (batch, M) (needs key material on FHE),
    equal to ``read_word`` of each word."""
    engine._own(signal)
    bits = engine.read_wires(signal.wires)  # (points, 2, bits, lanes)
    parts = decode_bits(np.moveaxis(bits, -1, 0), signal.fmt)  # (lanes, points, 2)
    out = np.empty(parts.shape[:2], dtype=complex)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return out
