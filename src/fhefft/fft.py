"""Radix-2 decimation-in-time FFT over fixed-point complex signals.

A forward, unnormalized transform of a power-of-two signal as log2(M)
stages of M/2 butterflies after an index bit-reversal.  Twiddle factors
are public constants quantized to the word format (round to nearest), so
each butterfly is four constant multiplications plus one subtraction and
one addition for t = W * x_j, followed by x_i + t and x_i - t: six real
sequences of word arithmetic per butterfly.

The stage driver evaluates a stage's word operations together: each
operation is a netlist recorded once (``netlist.word_op``), the operand
sets that share one form a group, and groups of the same size run side by
side as one ``netlist.union``, one ``engine.run`` per piece that fits the
engine's workspace bound.  The gates,
counts, depths and output bits are those of the butterflies built gate
by gate from ``arith.add``, ``arith.sub`` and ``arith.mul_const``, one
butterfly at a time (the reference the tests hold the driver to).

The index permutation touches no gates; only butterflies cost NANDs.
``fft_1d`` runs the driver on one signal.  ``fft_2d`` runs it on all rows
of an image in one pass, then on all columns in a second, at the same
word format.

A ``SignalBuffer`` is one wire array of shape (points, 2, bits) from
encoding to decoding: ``input_signal`` encodes every word of every lane in
one ``arith.encode_bits`` call and makes its wires in one
``engine.input_wires`` call, the transforms hand the array to the stage
driver and wrap its result, and ``read_signal`` reads it back through
``engine.read_wires`` and ``arith.decode_bits``.  Bit handles
(``SignalBuffer.points`` and ``bits``) are made only when asked for.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import FixedFormat, FixedWord, decode, decode_bits, encode, encode_bits
# not called here, but bench/tracing.py wraps these names in this module
from .arith import add, input_word, mul_const, read_word, sub  # noqa: F401
from .errors import UsageError
from .netlist import union, word_op


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


@dataclass(frozen=True, eq=False)
class SignalBuffer:
    """A 1D signal (dims = M) or row-major 2D image (dims = (rows, cols)).

    The signal is one wire array of ``engine`` of shape (points, 2, bits):
    points in order, each point's real word before its imaginary word, each
    word's bits LSB first (the EFT1 payload order).  ``points`` and ``bits``
    are handle views of it, made on first use; ``from_bits`` builds a
    signal from handles in that layout.
    """

    engine: object
    fmt: FixedFormat
    dims: int | tuple[int, int]
    wires: np.ndarray

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
        if self.wires.shape != (total, 2, self.fmt.total_bits):
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

    @classmethod
    def from_bits(cls, handles, fmt: FixedFormat, dims) -> SignalBuffer:
        """Signal of bit handles in the layout of ``bits``."""
        width = fmt.total_bits
        if not handles or len(handles) % (2 * width):
            raise UsageError(f"{len(handles)} bits do not make whole points of "
                             f"{width}-bit words")
        engine = handles[0].engine
        return cls(engine, fmt, dims, engine.wires(handles).reshape(-1, 2, width))


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


def _bit_reversal(m: int) -> list[int]:
    """reverse_bits(k) for k < m: entry k is the input index of output k."""
    width = m.bit_length() - 1
    return [int(f"{k:0{width}b}"[::-1], 2) if width else 0 for k in range(m)]


def fft_1d(signal: SignalBuffer, table: TwiddleTable | None = None,
           on_butterfly=None) -> SignalBuffer:
    """Forward transform of a 1D buffer; log2(M) stages of M/2 butterflies.

    ``on_butterfly(size, i, j)`` is invoked for each butterfly, in stage
    order, once its stage has run (instrumentation hook).
    """
    if not isinstance(signal.dims, int):
        raise UsageError("fft_1d expects a 1D signal")
    engine, fmt, m = signal.engine, signal.fmt, signal.dims
    if table is None:
        table = TwiddleTable(m, fmt)
    out = _stages(engine, fmt, signal.wires[None], table, on_butterfly)
    return SignalBuffer(engine, fmt, m, out[0])


def fft_2d(image: SignalBuffer) -> SignalBuffer:
    """Row-column transform of a 2D buffer at a fixed word format."""
    if isinstance(image.dims, int):
        raise UsageError("fft_2d expects a 2D signal")
    engine, fmt = image.engine, image.fmt
    rows, cols = dims = image.dims
    grid = _stages(engine, fmt, image.wires.reshape(rows, cols, 2, -1), TwiddleTable(cols, fmt))
    grid = _stages(engine, fmt, grid.swapaxes(0, 1), TwiddleTable(rows, fmt))
    return SignalBuffer(engine, fmt, dims, grid.swapaxes(0, 1).reshape(rows * cols, 2, -1))


def _stages(engine, fmt, wires, table, on_butterfly=None):
    """Bit reversal and radix-2 stages of every row of a (transforms, M, 2,
    bits) wire array; returns the transformed array.

    Each stage evaluates the word operations of all rows' butterflies
    together, on either engine: operations that share a recorded netlist
    run as one ``engine.run``.  ``on_butterfly`` sees the indices of the
    flattened (transforms * M) points.
    """
    count, m = wires.shape[:2]
    if table.m_points != m:
        raise UsageError(f"twiddle table for {table.m_points} points used on {m}")
    flat = wires[:, _bit_reversal(m)].reshape(count * m, 2, fmt.total_bits)
    size = 2
    while size <= m:
        half = size // 2
        flies = [(base + k, base + k + half, table.twiddle(size, k))
                 for base in range(0, count * m, size) for k in range(half)]
        _butterflies(engine, fmt, flat, flies)
        if on_butterfly is not None:
            for i, j, _ in flies:
                on_butterfly(size, i, j)
        size *= 2
    return flat.reshape(count, m, 2, fmt.total_bits)


def _butterflies(engine, fmt, wires, flies):
    """The butterfly (x_i + W*x_j, x_i - W*x_j) of each (i, j, W) of one
    stage, in place on the wire array of shape (points, 2, bits) (real and
    imaginary words)."""
    i = [f[0] for f in flies]
    j = [f[1] for f in flies]
    wre = [f[2][0] for f in flies]
    wim = [f[2][1] for f in flies]
    xj = wires[j]
    # t = W * x_j: the four constant products (xj.re*wre, xj.im*wim,
    # xj.re*wim, xj.im*wre), then t_re = p0 - p1 and t_im = p2 + p3
    prods = _word_ops(engine, "mul_const", fmt,
                      np.concatenate([xj[:, 0], xj[:, 1], xj[:, 0], xj[:, 1]]),
                      consts=wre + wim + wim + wre)
    n = len(flies)
    p = [prods[k * n:(k + 1) * n] for k in range(4)]
    t = np.stack([_word_ops(engine, "sub", fmt, p[0], p[1]),
                  _word_ops(engine, "add", fmt, p[2], p[3])], axis=1).reshape(2 * n, -1)
    # (x_i + t, x_i - t) on the real and imaginary words together
    xi = wires[i].reshape(2 * n, -1)
    wires[i] = _word_ops(engine, "add", fmt, xi, t).reshape(n, 2, -1)
    wires[j] = _word_ops(engine, "sub", fmt, xi, t).reshape(n, 2, -1)


def _word_ops(engine, op, fmt, x, y=None, consts=None):
    """``op`` on every row of word arrays x (and y), as a wire array.

    Rows that share a netlist (same constant multiplier and pattern of
    constant bits) form a group.  Groups with the same row count run side
    by side as one ``netlist.union``, one ``engine.run`` per piece of it.
    A piece is cut so that the workspace of one of its rows
    (``work_rows`` * ``engine.wire_bytes``) fits in ``engine.CHUNK_BYTES``;
    the cleartext engine evaluates the rows in chunks that fit.  The cut
    does not depend on the row count, so every transform size that runs a
    stage shares its unions.
    """
    operands = x if y is None else np.concatenate([x, y], axis=1)
    keys = np.ascontiguousarray(operands["c"])  # one int8 per operand bit
    if consts is not None:  # prefix each row with the bytes of its multiplier
        keys = np.concatenate([np.asarray(consts, dtype=np.float64)[:, None].view(np.int8),
                               keys], axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")  # equal keys adjacent, in row order
    ordered = keys[order]
    by_count = {}
    for rows in np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1):
        c = None if consts is None else consts[rows[0]]
        net = word_op(op, fmt, operands["c"][rows[0]], c)
        by_count.setdefault(len(rows), []).append((rows, net))
    out = np.empty((len(operands), fmt.total_bits), dtype=operands.dtype)
    fits = engine.CHUNK_BYTES // engine.wire_bytes
    for count, groups in by_count.items():
        for piece in _pieces(groups, fits):
            rows = np.stack([r for r, _ in piece])  # (parts, count)
            res = engine.run(union(net for _, net in piece), operands[rows.T].reshape(count, -1))
            out[rows] = res.reshape(count, len(piece), -1).swapaxes(0, 1)
    return out


def _pieces(groups, fits):
    """Runs of (rows, netlist) groups whose summed ``work_rows`` stay within
    ``fits``; a group that alone exceeds it is a piece of its own."""
    piece, rows = [], 0
    for group in groups:
        if piece and rows + group[1].work_rows > fits:
            yield piece
            piece, rows = [], 0
        piece.append(group)
        rows += group[1].work_rows
    yield piece


# -- signal construction and readout ---------------------------------------

def input_signal(engine, values, fmt: FixedFormat,
                 dims: int | tuple[int, int] | None = None) -> SignalBuffer:
    """Encode complex values into variable words (one signal per lane).

    ``values`` is array-like of shape (M,) to broadcast one signal across
    all lanes, or (batch, M) with one signal per lane.  The whole signal
    goes through ``encode_bits`` and ``engine.input_wires`` at once, with
    the bits, range errors and encryptions of ``input_word`` on each word
    in layout order.
    """
    arr = np.atleast_2d(np.asarray(values, dtype=complex))
    if arr.shape[0] == 1 and engine.batch_size > 1:
        arr = np.repeat(arr, engine.batch_size, axis=0)
    if arr.ndim != 2 or arr.shape[0] != engine.batch_size:
        raise UsageError(f"signals of shape {arr.shape} for {engine.batch_size} lanes")
    parts = np.stack([arr.real.T, arr.imag.T], axis=1)  # (points, 2, lanes)
    wires = engine.input_wires(encode_bits(parts, fmt).swapaxes(-1, -2))
    return SignalBuffer(engine, fmt, dims if dims is not None else arr.shape[1], wires)


def read_signal(engine, signal: SignalBuffer) -> np.ndarray:
    """Decoded complex array of shape (batch, M) (needs key material on FHE),
    equal to ``read_word`` of each word."""
    if signal.engine is not engine:
        raise UsageError("signal belongs to a different engine")
    bits = engine.read_wires(signal.wires)  # (points, 2, bits, lanes)
    parts = decode_bits(np.moveaxis(bits, -1, 0), signal.fmt)  # (lanes, points, 2)
    out = np.empty(parts.shape[:2], dtype=complex)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return out
