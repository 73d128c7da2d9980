"""Fixed-point arithmetic circuits over bit-engine handles.

Numbers are two's-complement words of ``total_bits`` bits, LSB first,
carrying an implicit scale of ``2**frac_bits``; both operands of any
binary operation must share one format.  Addition is a ripple of full
adders (9F - 5 NANDs at width F: a shared-NAND half adder starts the
chain and the top stage skips its carry).  Subtraction inverts the
second operand and feeds a carry-in of 1.  Multiplication sign-extends
to twice the width, reduces partial products through carry-save adder
layers, and finishes with one ripple add; the fixed-point variant keeps
bits [f, f + F) of the double-width product, an implicit division by
the scale.  High-order bits beyond the kept window are never computed.

Multiplying by a plaintext constant adds one partial-product row per
nonzero digit of the constant's canonical signed-digit (CSD) recoding
instead of one per 1 bit of its two's-complement pattern: a digit -1
adds the complemented row (free NOTs of the input bits) plus a constant
folded into one correction word.  The product modulo 2**(f + F) is the
same either way, so the result is bit-identical to multiplying by an
encryption of the same constant.

The lane codec is ``encode_bits`` (real values of any shape to
two's-complement bits) and ``decode_bits`` (its inverse, in 32-bit limbs).
``fft.input_signal`` and ``fft.read_signal`` run a whole signal through it;
``input_word`` and ``read_word`` are the one-word case.  ``_grid`` owns the
value rule of ``encode_int``, ``encode_bits``, ``constant_word``,
``input_word`` and ``fft.input_signal`` (which splits complex values after
``_numbers``, the rule's typing step): what is not a real number raises
``UsageError``, a value off the format ``RangeError``; the rest is rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

from .errors import RangeError, UsageError
from .gates import and_, not_, xor_


@dataclass(frozen=True)
class FixedFormat:
    """Word width and fractional split of a fixed-point format."""

    total_bits: int
    frac_bits: int

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    def __post_init__(self):
        if not 0 < self.frac_bits < self.total_bits:
            raise UsageError(
                f"need 0 < frac_bits < total_bits, got {self.frac_bits}/{self.total_bits}")
        if self.total_bits > 1024:  # the range of wider words is past float64's
            raise UsageError(f"words of {self.total_bits} bits are wider than the "
                             f"float64 range (at most 1024 bits)")


@dataclass(frozen=True)
class FixedWord:
    """LSB-first tuple of bit handles plus its format."""

    bits: tuple
    fmt: FixedFormat

    def __post_init__(self):
        if len(self.bits) != self.fmt.total_bits:
            raise UsageError(
                f"word has {len(self.bits)} bits, format wants {self.fmt.total_bits}")

    @property
    def engine(self):
        return self.bits[0].engine


# -- plaintext codec -----------------------------------------------------

def encode_int(x: float, fmt: FixedFormat) -> int:
    """Nearest fixed-point integer round(x * 2^f); raises when out of range."""
    return int(_grid(x, fmt))


def _not_real(detail) -> UsageError:
    return UsageError(f"fixed-point values must be real numbers: {detail}")


def _numbers(values) -> np.ndarray:
    """``values`` as an array of numbers, complex ones included; ragged
    nesting, text and objects that are not numbers raise ``UsageError``."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise _not_real(exc) from None
    if arr.dtype.kind not in "biufcO" or arr.dtype == object and not all(
            isinstance(v, (Number, np.bool_)) for v in arr.flat):
        raise _not_real(f"got {arr.dtype} values")  # a cast would parse text
    return arr


def _grid(values, fmt: FixedFormat) -> np.ndarray:
    """round(x * 2^f), half to even, of real values of any shape, as integral
    floats; the first value out of range, in C order, raises its ``RangeError``."""
    arr = _numbers(values)
    if np.iscomplexobj(arr) or arr.dtype == object and any(map(np.iscomplexobj, arr.flat)):
        raise _not_real("got complex values")
    with np.errstate(over="ignore", invalid="ignore"):
        # objects are clipped first: an int past float64's range still scales to inf
        real = np.asarray(np.clip(arr, -1e308, 1e308) if arr.dtype == object else arr, float)
        ints = np.rint(real * fmt.scale)
        half = 2.0 ** (fmt.total_bits - 1)
        bad = ~((ints >= -half) & (ints < half))  # NaN and +-inf fail too
    if bad.any():
        at = np.unravel_index(bad.argmax(), bad.shape)
        ix = f" (integer {int(ints[at])})" if np.isfinite(ints[at]) else ""
        raise RangeError(f"{arr[at]} does not fit {fmt.total_bits}.{fmt.frac_bits} "
                         f"fixed point{ix}")
    return ints


# -- lane codec -------------------------------------------------------------

def encode_bits(values, fmt: FixedFormat) -> np.ndarray:
    """Two's-complement bits, LSB first on a new last axis, of the ``_grid``
    integers of real values of any shape (uint8, ``values.shape + (total_bits,)``)."""
    ints = _grid(values, fmt)
    width = fmt.total_bits
    # two's complement in 32-bit limbs, LSB first: every split is exact on
    # integer-valued floats, and the signed top limb wraps into its pattern
    limbs = np.empty((*ints.shape, -(-width // 32)), dtype=np.int64)
    for k in range(limbs.shape[-1] - 1):
        high = np.floor(ints / 2.0**32)
        limbs[..., k] = ints - high * 2.0**32
        ints = high
    limbs[..., -1] = ints
    raw = limbs.astype("<u4").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=width, bitorder="little")


# bound on the copied bits of one block that ``decode_bits`` packs
_DECODE_BYTES = 1 << 17


def decode_bits(bits, fmt: FixedFormat) -> np.ndarray:
    """Values of two's-complement bits, LSB first on the last axis (the
    inverse of ``encode_bits``).

    Each value is the word's integer over the scale, correctly rounded, for
    words of up to 85 bits (one 32-bit limb past the float64 significand);
    wider words are rounded twice, so a value can differ in the last place.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    width, n_limbs = bits.shape[-1], -(-bits.shape[-1] // 32)
    rows = bits.reshape(1, width) if bits.ndim == 1 else bits  # a view either way
    packed = np.empty((*rows.shape[:-1], 4 * n_limbs), dtype=np.uint8)
    # sign-extended to whole 32-bit limbs, in blocks of rows: the bits are often
    # a transposed view (lanes first), and one copy of them all would double them
    step = max(1, _DECODE_BYTES // max(1, 8 * packed[:1].size))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        ext = np.empty((*block.shape[:-1], 32 * n_limbs), dtype=np.uint8)
        ext[..., :width] = block
        ext[..., width:] = block[..., -1:]
        packed[lo:lo + step] = np.packbits(ext, axis=-1, bitorder="little")
    limbs = packed.reshape(*bits.shape[:-1], 4 * n_limbs).view("<u4")
    value = limbs[..., -1].view("<i4").astype(float)
    for k in range(limbs.shape[-1] - 2, -1, -1):
        value = value * 2.0**32 + limbs[..., k]
    return value / fmt.scale


# -- word construction and readout ---------------------------------------

def input_word(engine, values, fmt: FixedFormat) -> FixedWord:
    """Encode one value per engine lane into a word of variable wires.

    ``values`` holds one real number per lane, or one real scalar for all
    lanes; they go through ``encode_bits`` and ``engine.input_wires``.
    """
    lanes, bits = engine.batch_size, encode_bits(values, fmt)
    if bits.ndim == 1:  # one value for every lane
        bits = np.broadcast_to(bits, (lanes, fmt.total_bits))
    if bits.shape[:-1] != (lanes,):
        raise UsageError(f"got values of shape {bits.shape[:-1]} for {lanes} lanes")
    return FixedWord(tuple(engine.handles(engine.input_wires(bits.T))), fmt)  # a wire per bit


def constant_word(engine, x: float, fmt: FixedFormat) -> FixedWord:
    """Word of public constant bits (foldable, costs no gates downstream)."""
    return FixedWord(tuple(engine.constant(b) for b in encode_bits(x, fmt).tolist()), fmt)


def read_word(engine, word: FixedWord) -> list[float]:
    """Decoded value of a word in every lane (FHE readout needs the secret
    key), through ``engine.read_wires`` and ``decode_bits``."""
    return decode_bits(engine.read_wires(engine.wires(word.bits)).T, word.fmt).tolist()


# -- adders ---------------------------------------------------------------

def half_adder(a, b):
    """sum = a XOR b, carry = a AND b (6 NANDs)."""
    return xor_(a, b), and_(a, b)


def full_adder(a, b, cin):
    """sum = a XOR b XOR cin, carry = majority; 9 NANDs.

    Two half adders plus the OR of their carries, sharing the carry NANDs:
    the OR collapses to one gate on the available complements.
    """
    eng = a.engine
    n1 = eng.nand(a, b)
    s1 = eng.nand(eng.nand(a, n1), eng.nand(b, n1))
    n4 = eng.nand(s1, cin)
    total = eng.nand(eng.nand(s1, n4), eng.nand(cin, n4))
    return total, eng.nand(n4, n1)


def _ha_shared(a, b):
    """Half adder reusing its NAND between the XOR and the carry (5 gates)."""
    eng = a.engine
    n1 = eng.nand(a, b)
    s = eng.nand(eng.nand(a, n1), eng.nand(b, n1))
    return s, eng.nand(n1, n1)


def _ripple(abits, bbits, cin=None) -> list:
    """Width-preserving ripple add; the carry out of the top bit is dropped."""
    width = len(abits)
    out = []
    carry = cin
    for i in range(width):
        a, b = abits[i], bbits[i]
        if i == width - 1:
            s = xor_(a, b)
            out.append(xor_(s, carry) if carry is not None else s)
        elif carry is None:
            s, carry = _ha_shared(a, b)
            out.append(s)
        else:
            s, carry = full_adder(a, b, carry)
            out.append(s)
    return out


def _check_formats(x: FixedWord, y: FixedWord):
    if x.fmt != y.fmt:
        raise UsageError(f"format mismatch: {x.fmt} vs {y.fmt}")


def add(x: FixedWord, y: FixedWord) -> FixedWord:
    """Two's-complement sum, wrapping on overflow; 9F - 5 NANDs."""
    _check_formats(x, y)
    return FixedWord(tuple(_ripple(x.bits, y.bits)), x.fmt)


def sub(x: FixedWord, y: FixedWord) -> FixedWord:
    """x - y by inverting y and rippling with carry-in 1; 10F - 3 NANDs."""
    _check_formats(x, y)
    inverted = [not_(b) for b in y.bits]
    one = x.engine.constant(1)
    return FixedWord(tuple(_ripple(x.bits, inverted, cin=one)), x.fmt)


def butterfly_sums(x_re: FixedWord, x_im: FixedWord, p0: FixedWord, p1: FixedWord,
                   p2: FixedWord, p3: FixedWord) -> tuple[FixedWord, ...]:
    """The sums of a radix-2 butterfly from the four twiddle products of x_j:
    t = (p0 - p1, p2 + p3), then (x_re + t_re, x_im + t_im, x_re - t_re,
    x_im - t_im); the gates of those ``sub`` and ``add`` calls, 57F - 24
    NANDs."""
    t_re, t_im = sub(p0, p1), add(p2, p3)
    return add(x_re, t_re), add(x_im, t_im), sub(x_re, t_re), sub(x_im, t_im)


# -- multipliers -----------------------------------------------------------

def _reduce_columns(cols):
    """Carry-save 3->2 layers until every column holds at most two bits."""
    while any(len(col) > 2 for col in cols):
        nxt = [[] for _ in cols]
        for ci, col in enumerate(cols):
            i = 0
            while len(col) - i >= 3:
                s, cy = full_adder(col[i], col[i + 1], col[i + 2])
                i += 3
                nxt[ci].append(s)
                if ci + 1 < len(cols):
                    nxt[ci + 1].append(cy)
            if len(col) - i == 2:
                s, cy = _ha_shared(col[i], col[i + 1])
                i += 2
                nxt[ci].append(s)
                if ci + 1 < len(cols):
                    nxt[ci + 1].append(cy)
            nxt[ci].extend(col[i:])
        cols = nxt
    return cols


def _final_add(engine, cols) -> list:
    zero = engine.constant(0)
    arow = [col[0] if len(col) > 0 else zero for col in cols]
    brow = [col[1] if len(col) > 1 else zero for col in cols]
    return _ripple(arow, brow)


def _sign_extend(bits, width):
    bits = list(bits)
    return bits + [bits[-1]] * (width - len(bits))


def _product_bits(x: FixedWord, y: FixedWord, hi: int) -> list:
    """Bits 0..hi-1 of the sign-extended product of two words."""
    xb = _sign_extend(x.bits, hi)
    yb = _sign_extend(y.bits, hi)
    cols = [[] for _ in range(hi)]
    for i in range(hi):
        for j in range(hi - i):
            cols[i + j].append(and_(xb[i], yb[j]))
    return _final_add(x.engine, _reduce_columns(cols))


def csd_digits(v: int, width: int) -> list[int]:
    """Canonical signed digits of v modulo 2**width, LSB first.

    The non-adjacent form of v's signed representative: digits in
    {-1, 0, 1}, no two adjacent digits nonzero, sum(d_j 2**j) = v mod
    2**width, and at most ``width`` digits.
    """
    v %= 1 << width
    if v >> (width - 1):
        v -= 1 << width
    digits = []
    while v:
        d = 2 - (v & 3) if v & 1 else 0
        digits.append(d)
        v = (v - d) >> 1
    return digits


def _product_bits_const(x: FixedWord, c_int: int, hi: int) -> list:
    """Like _product_bits with one operand known: one row per CSD digit.

    A digit +1 at j adds x << j.  A digit -1 adds -x << j = (~x << j) + 2**j
    (mod 2**hi): the row of complemented bits, each a folded NAND(x_i, 1)
    made once, and all the 2**j go into one constant of ``constant(1)`` bits.
    """
    eng = x.engine
    digits = csd_digits(c_int, hi)
    rows = {1: _sign_extend(x.bits, hi)}
    if -1 in digits:
        one = eng.constant(1)
        rows[-1] = _sign_extend([eng.nand(b, one) for b in x.bits], hi)
    cols = [[] for _ in range(hi)]
    for j, d in enumerate(digits):
        if d:
            row = rows[d]
            for i in range(hi - j):
                cols[i + j].append(row[i])
    correction = sum(1 << j for j, d in enumerate(digits) if d < 0) % (1 << hi)
    for j in range(hi):
        if (correction >> j) & 1:
            cols[j].append(eng.constant(1))
    return _final_add(eng, _reduce_columns(cols))


def mul_integer(x: FixedWord, y: FixedWord) -> FixedWord:
    """Integer product of the raw words, high bits dropped (wraps mod 2^F)."""
    _check_formats(x, y)
    return FixedWord(tuple(_product_bits(x, y, x.fmt.total_bits)), x.fmt)


def mul_fixed(x: FixedWord, y: FixedWord) -> FixedWord:
    """Fixed-point product: bits [f, f+F) of the extended product.

    The window drop is a truncation (floor toward minus infinity), so the
    result value is floor(x * y * 2^f) / 2^f up to the operands' own
    quantization.
    """
    _check_formats(x, y)
    fmt = x.fmt
    bits = _product_bits(x, y, fmt.frac_bits + fmt.total_bits)
    return FixedWord(tuple(bits[fmt.frac_bits:]), fmt)


def mul_const(x: FixedWord, c: float) -> FixedWord:
    """Fixed-point product with a plaintext constant.

    Bit-identical to ``mul_fixed(x, <encryption of c>)``.  Only the
    nonzero CSD digits of c cost partial-product rows; the digits are
    public circuit structure (traceable by an observer of the evaluation,
    which is the accepted cost/secrecy trade of constant multiplication).
    """
    fmt = x.fmt
    bits = _product_bits_const(x, encode_int(c, fmt), fmt.frac_bits + fmt.total_bits)
    return FixedWord(tuple(bits[fmt.frac_bits:]), fmt)
