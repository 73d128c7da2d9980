"""Helpers for driving integer-level circuits from tests, the list-of-bits
codec the lane codec is checked against, and the gate-by-gate FFT pieces
the batched stage driver is checked against."""

from dataclasses import replace

from fhefft.arith import (
    FixedFormat,
    FixedWord,
    add,
    butterfly_sums,
    encode_int,
    mul_const,
    product_rule,
    sub,
)
from fhefft.errors import UsageError
from fhefft.fft import ComplexFixed, SignalBuffer, _bit_reversal


def bits_to_int(bits, signed=True):
    """Integer of LSB-first bits, two's complement when ``signed``."""
    raw = 0
    for i, b in enumerate(bits):
        raw |= (b & 1) << i
    if signed and bits and (raw >> (len(bits) - 1)) & 1:
        raw -= 1 << len(bits)
    return raw


def decode(bits, fmt):
    """Real value of LSB-first two's-complement bits, one Python int exactly
    over the scale."""
    return bits_to_int(bits, signed=True) / fmt.scale


def pack_int_word(engine, ints, width, frac_bits=1):
    """Word of variable wires from raw integers, one per engine lane."""
    fmt = FixedFormat(width, frac_bits)
    handles = []
    for bit in range(width):
        lanes = 0
        for lane, iv in enumerate(ints):
            lanes |= (((iv % (1 << width)) >> bit) & 1) << lane
        handles.append(engine.input_bit(lanes))
    return FixedWord(tuple(handles), fmt)


def unpack_int_word(engine, word, signed=True):
    """Raw integer value of a word in every lane."""
    masks = [engine.read_back(h) for h in word.bits]
    out = []
    for lane in range(engine.batch_size):
        bits = [(m >> lane) & 1 for m in masks]
        out.append(bits_to_int(bits, signed=signed))
    return out


def wrap_signed(v, width):
    """Two's-complement wrap of an integer to `width` bits."""
    v %= 1 << width
    if v >= 1 << (width - 1):
        v -= 1 << width
    return v


def bit_reverse_permute(signal: SignalBuffer) -> SignalBuffer:
    """Reorder point i to index reverse_bits(i); a free plaintext shuffle."""
    if not isinstance(signal.dims, int):
        raise UsageError("bit reversal applies to 1D signals")
    return replace(signal, wires=signal.wires[_bit_reversal(signal.dims)])


def signal_from_bits(handles, fmt, dims) -> SignalBuffer:
    """Signal of bit handles in the layout of ``SignalBuffer.bits``."""
    width = fmt.total_bits
    if not handles or len(handles) % (2 * width):
        raise UsageError(f"{len(handles)} bits do not make whole points of "
                         f"{width}-bit words")
    engine = handles[0].engine
    return SignalBuffer(engine, fmt, dims, engine.wires(handles).reshape(-1, 2, width))


def signal_of(points, dims) -> SignalBuffer:
    """Signal of handle points, through ``signal_from_bits``."""
    bits = [h for pt in points for word in (pt.re, pt.im) for h in word.bits]
    return signal_from_bits(bits, points[0].fmt, dims)


def butterfly(xi: ComplexFixed, xj: ComplexFixed,
              w: tuple[float, float]) -> tuple[ComplexFixed, ComplexFixed]:
    """(x_i + W*x_j, x_i - W*x_j) for a plaintext twiddle W, gate by gate:
    the products its product rule asks for, then ``butterfly_sums``, as the
    plans make them."""
    fmt = xj.fmt
    rule = product_rule(*(encode_int(c, fmt) for c in w), fmt)
    words = [mul_const((xj.re, xj.im)[part], c / fmt.scale) for part, c in rule.products]
    words += [xj.re, xj.im]
    s = butterfly_sums(xi.re, xi.im, *(words[k] for k in rule.words), rule.kind)
    return ComplexFixed(*s[:2]), ComplexFixed(*s[2:])


def four_product_butterfly(xi: ComplexFixed, xj: ComplexFixed,
                           w: tuple[float, float]) -> tuple[ComplexFixed, ComplexFixed]:
    """``butterfly`` with all four products of W * x_j, by ``add``, ``sub``
    and ``mul_const``: the reference the product rule is checked against."""
    wre, wim = w
    t_re = sub(mul_const(xj.re, wre), mul_const(xj.im, wim))
    t_im = add(mul_const(xj.re, wim), mul_const(xj.im, wre))
    hi = ComplexFixed(add(xi.re, t_re), add(xi.im, t_im))
    lo = ComplexFixed(sub(xi.re, t_re), sub(xi.im, t_im))
    return hi, lo


def gate_by_gate_fft(pts, table):
    """fft_1d as a plain composition of ``butterfly`` over handle points,
    one butterfly at a time."""
    m = len(pts)
    pts = [pts[r] for r in _bit_reversal(m)]
    size = 2
    while size <= m:
        half = size // 2
        for start in range(0, m, size):
            for k in range(half):
                i, j = start + k, start + k + half
                pts[i], pts[j] = butterfly(pts[i], pts[j], table.twiddle(size, k))
        size *= 2
    return pts
