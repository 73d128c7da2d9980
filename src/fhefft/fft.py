"""Radix-2 decimation-in-time FFT over fixed-point complex signals.

A forward, unnormalized transform of a power-of-two signal as log2(M)
stages of M/2 butterflies after an index bit-reversal.  Twiddle factors
are public constants quantized to the word format (round to nearest), so
t = W * x_j takes constant multiplications, as many as the butterfly's
product rule (``arith.product_rule``, a function of the twiddle's
quantized integers) asks for: four in general, two where wre = wim or
wim = -wre (the W(s, 3s/8) and W(s, s/8) twiddles), none for W = -j;
then come x_i + t and x_i - t.  At 32.16 that is 5,719, 5,714 and 1,126
NANDs per butterfly where four products took 9,749, 9,703 and 1,498;
Table 1 (M = 8..128) falls from 3,783,162 NANDs to 3,281,811 and the
16x16 image from 3,628,928 to 2,775,776.  A stage compiles its
butterflies as two word-op phases: one call for all its products
(``arith.mul_const``), then one for all its sums
(``arith.butterfly_sums``, keyed by the rule's kind: the two steps of
adds and subtracts recorded as one netlist, whose second ripples start
as soon as the first ones' low bits are ready).

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
are those of the butterflies built gate by gate, one at a time, from
``arith.mul_const`` and ``arith.butterfly_sums`` by the same product rule
(the reference the tests hold the plans to).

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
made only when asked for.  ``_sides`` is the one shape rule, also of
``fileio``, ``harness`` and ``cli``, on ``errors._is_pow2``, the one
power-of-two predicate: a 1D signal of M points is the one-row image
(1, M), whose column pass compiles no stage.
"""

from __future__ import annotations

import cmath
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import (FixedFormat, FixedWord, _numbers, decode_bits, encode_bits, encode_int,
                    product_rule)
# not called here, but bench/tracing.py wraps these names in this module
from .arith import add, input_word, mul_const, read_word, sub  # noqa: F401
from .errors import UsageError, _is_pow2
from .netlist import PLANS
from .plan import Compiler, replay


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
        rules = [product_rule(*(encode_int(w, fmt) for w in table.twiddle(size, k)), fmt)
                 for k in range(half)]
        flies = [(base + k, base + k + half, rules[k])
                 for base in range(0, count * m, size) for k in range(half)]
        _butterflies(comp, fmt, flat, flies)
        comp.stage(size)
        size *= 2
    return flat.reshape(count, m, 2)


def _butterflies(comp, fmt, words, flies):
    """The butterfly (x_i + W*x_j, x_i - W*x_j) of each (i, j, product rule
    of W) of one stage, in place on the compiled words of shape (points, 2)
    (real and imaginary words), as two word-op phases: one ``mul_const``
    call for every product the rules ask for, then one ``butterfly_sums``
    call, keyed by each rule's kind, on x_i and the words the rules name.
    Each block is released once, when nothing reads it: x_j after the
    products, unless its rule's sums read it too."""
    i, j, rules = ([f[n] for f in flies] for n in range(3))
    xj = words[j]
    # product slot after slot, so each slot's rows stay in butterfly order
    made = [(fly, slot) for slot in range(4)
            for fly, r in enumerate(rules) if slot < len(r.products)]
    at = {key: row for row, key in enumerate(made)}  # (butterfly, slot) -> product row
    part, c = zip(*(rules[fly].products[slot] for fly, slot in made))
    prods = comp.word_ops("mul_const", fmt, xj[[fly for fly, _ in made], list(part)][:, None],
                          consts=[v / fmt.scale for v in c])
    reads = np.array([max(r.words) >= len(r.products) for r in rules])
    comp.release(xj[~reads])
    pool = np.concatenate([prods[:, 0], xj.reshape(-1)])  # products, then x_j's words
    take = [[at[fly, w] if w < len(r.products) else len(at) + 2 * fly + w - len(r.products)
             for w in r.words] for fly, r in enumerate(rules)]
    xi = words[i]
    sums = comp.word_ops("butterfly_sums", fmt, np.concatenate([xi, pool[take]], axis=1),
                         consts=[r.kind for r in rules])
    comp.release(prods)
    comp.release(xi)
    comp.release(xj[reads])
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
