"""Helpers for driving integer-level circuits from tests, and the
gate-by-gate FFT pieces the batched stage driver is checked against."""

from dataclasses import replace

from fhefft.arith import FixedFormat, FixedWord, add, bits_to_int, mul_const, sub
from fhefft.errors import UsageError
from fhefft.fft import ComplexFixed, SignalBuffer, _bit_reversal


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


def signal_of(points, dims) -> SignalBuffer:
    """Signal of handle points, through ``SignalBuffer.from_bits``."""
    bits = [h for pt in points for word in (pt.re, pt.im) for h in word.bits]
    return SignalBuffer.from_bits(bits, points[0].fmt, dims)


def butterfly(xi: ComplexFixed, xj: ComplexFixed,
              w: tuple[float, float]) -> tuple[ComplexFixed, ComplexFixed]:
    """(x_i + W*x_j, x_i - W*x_j) for a plaintext twiddle W, gate by gate."""
    wre, wim = w
    t_re = sub(mul_const(xj.re, wre), mul_const(xj.im, wim))
    t_im = add(mul_const(xj.re, wim), mul_const(xj.im, wre))
    hi = ComplexFixed(add(xi.re, t_re), add(xi.im, t_im))
    lo = ComplexFixed(sub(xi.re, t_re), sub(xi.im, t_im))
    return hi, lo
