"""Fixed-point arithmetic circuits over bit-engine handles.

Numbers are two's-complement words of ``total_bits`` bits, LSB first,
carrying an implicit scale of ``2**frac_bits``; both operands of any
binary operation must share one format.  Addition is a ripple of full
adders (9F - 6 NANDs at width F: a half adder whose carry is a free NOT
starts the chain and the top stage skips its carry).  Subtraction
ripples the free NOTs of the second operand with a carry-in of 1, whose
first stage is a 3-NAND adder (9F - 7 NANDs).  Multiplication
sign-extends to twice the width, reduces partial products through
carry-save adder layers, and finishes with one ripple add; the
fixed-point variant keeps bits [f, f + F) of the double-width product,
an implicit division by the scale.  High-order bits beyond the kept
window are never computed, and the final ripple makes only the carries
of the bits below it.

Each word op (``add``, ``sub``, ``mul_const``, ``mul_integer``,
``mul_fixed``) makes its gates through one ``_Builder``: constant
operands fold, each NAND of an operand pair is made once, and every NOT
is the engine's free complement.  The adders compose the builder's XOR,
whose first NAND their carries read again: the builder's hashing makes
it once.  Plans record the word ops, so they make the gates the
gate-by-gate engines make.

Multiplying by a plaintext constant adds one partial-product row per
nonzero digit of the constant's canonical signed-digit (CSD) recoding
instead of one per 1 bit of its two's-complement pattern: a digit -1
adds the complemented row (free NOTs of the input bits) plus a constant
folded into one correction word.  The product modulo 2**(f + F) is the
same either way, so the result is bit-identical to multiplying by an
encryption of the same constant.

``product_rule`` says which twiddle products a radix-2 butterfly makes,
from the twiddle's quantized integers, and which ``butterfly_sums`` kind
combines them: two products where the components are equal or negated,
none for W = -j, bit-identical to the four products.  ``fft``'s plans
and the tests' gate-by-gate butterfly both follow it.

The lane codec is ``encode_bits`` (real values of any shape to
two's-complement bits) and ``decode_bits`` (its inverse, in 32-bit limbs).
``fft.input_signal`` and ``fft.read_signal`` run a whole signal through it;
``input_word`` and ``read_word`` are the one-word case.  ``_grid`` owns the
value rule of ``encode_int``, ``encode_bits``, ``constant_word``,
``input_word`` and ``fft.input_signal`` (which splits complex values after
``_numbers``, the rule's typing step): what is not a real number raises
``UsageError``, a value off the format ``RangeError``; the rest is rounded.
``_reals``, its real-number step, also reads ``run_2d_experiment``'s images.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Number
from typing import NamedTuple

import numpy as np

from .errors import RangeError, UsageError, _is_count
from .gates import fold


@dataclass(frozen=True)
class FixedFormat:
    """Word width and fractional split of a fixed-point format."""

    total_bits: int
    frac_bits: int

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    def __post_init__(self):
        if not (_is_count(self.frac_bits) and _is_count(self.total_bits, self.frac_bits + 1)
                and self.total_bits <= 1024):  # the range of wider words is past float64's
            raise UsageError(f"need integers 0 < frac_bits < total_bits <= 1024 (the float64 "
                             f"range), got {self.frac_bits!r}/{self.total_bits!r}")
        for field in fields(self):  # as Python ints: a numpy integer's shifts wrap
            object.__setattr__(self, field.name, int(getattr(self, field.name)))


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
    """Nearest fixed-point integer round(x * 2^f) of one value (a 0-d array
    too); raises when out of range."""
    if (ints := _grid(x, fmt)).ndim:
        raise UsageError(f"encode_int takes one value, got an array of shape {ints.shape}")
    return int(ints)


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


def _reals(values) -> np.ndarray:
    """Real ``values`` of any shape as floats, complex ones raising ``UsageError``
    too; an integer object past float64's range reads as +-1e308."""
    arr = _numbers(values)
    if np.iscomplexobj(arr) or arr.dtype == object and any(map(np.iscomplexobj, arr.flat)):
        raise _not_real("got complex values")
    with np.errstate(over="ignore"):  # a long double past float64's range casts to inf
        return np.asarray(np.clip(arr, -1e308, 1e308) if arr.dtype == object else arr, float)


def _grid(values, fmt: FixedFormat) -> np.ndarray:
    """round(x * 2^f), half to even, of ``_reals`` of any shape, as integral
    floats; the first value out of range, in C order, raises its ``RangeError``."""
    real = _reals(values)
    with np.errstate(over="ignore", invalid="ignore"):
        ints = np.rint(real * fmt.scale)
        half = 2.0 ** (fmt.total_bits - 1)
        bad = ~((ints >= -half) & (ints < half))  # NaN and +-inf fail too
    if bad.any():
        at = np.unravel_index(bad.argmax(), bad.shape)
        ix = f" (integer {int(ints[at])})" if np.isfinite(ints[at]) else ""
        raise RangeError(f"{np.asarray(values)[at]} does not fit "
                         f"{fmt.total_bits}.{fmt.frac_bits} fixed point{ix}")
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


# -- gate builder ------------------------------------------------------------

class _Builder:
    """The gates of one word-op call, made through its engine's ``nand``,
    ``free_not`` and ``constant`` with the rewrites of and-inverter graphs
    (structural hashing and complement folding; Mishchenko, Chatterjee &
    Brayton, DAC 2006):

    * a NAND with a constant operand folds by ``gates.fold`` with the
      builder as its engine, so that a folded NOT is the builder's own;
    * a NAND of an operand pair is made once, in either order, keyed by the
      handles' identity; the builder holds every handle it keys on until
      the call ends, so no id is reused;
    * every NOT is the free complement (``engine.free_not``), made once per
      handle: NAND(x, x) = NOT x, NOT NOT x = x and NAND(x, NOT x) = 1.

    The recorder (``netlist._record``) and the gate-by-gate engines both
    run the word ops, so a plan makes the gates a gate-by-gate run makes.

    Each public call has its own builder: ``butterfly_sums`` is a
    composition of public ``sub`` and ``add`` calls and carry-in ripples,
    each with its own, and a builder spanning all of them would fold NOTs
    across the calls that separate calls make anew.  The builder folds
    constants itself: the NOTs an engine's own folding makes are new handles
    it cannot see, and with them Table 1 at 32.16 kept 3,944,778 NANDs where
    the builder's folding left 3,783,162 (with four products per
    butterfly, before ``product_rule``).  Since keys are identities, an op
    on aliased operands (``add(x, x)``) can make fewer gates gate by gate
    than its recorded netlist, whose operands are distinct rows; the values
    are the same.  No backward liveness pass is made: only the sums below a
    product's kept bits are skipped, in its final ripple (``_ripple``'s
    ``lo``).
    """

    def __init__(self, handles: tuple):
        self.engine = engine = handles[0].engine
        own = getattr(engine, "_own", None)  # the engines' rule; a recorder owns its wires
        if own is not None:
            own(*handles)
        self._nands = {}  # (id, id) -> (a, b, NAND(a, b))
        self._nots = {}  # id(x) -> (x, NOT x), for x and for NOT x

    def constant(self, bit: int):
        return self.engine.constant(bit)

    def free_not(self, x):
        """NOT of a variable handle, made once."""
        pair = self._nots.get(id(x))
        if pair is None:
            nx = self.engine.free_not(x)
            pair = self._nots[id(x)] = (x, nx)
            self._nots[id(nx)] = (nx, x)
        return pair[1]

    def nand(self, a, b):
        if a.const is not None or b.const is not None:
            return fold(self, a, b)
        if a is b:
            return self.free_not(a)
        pair = self._nots.get(id(a))
        if pair is not None and pair[1] is b:
            return self.constant(1)
        key = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
        hit = self._nands.get(key)
        if hit is None:
            hit = self._nands[key] = (a, b, self.engine.nand(a, b))
        return hit[2]

    def not_(self, x):
        return self.nand(x, x)

    def and_(self, a, b):
        return self.not_(self.nand(a, b))

    def xor(self, a, b):
        n1 = self.nand(a, b)
        return self.nand(self.nand(a, n1), self.nand(b, n1))


# -- adders ---------------------------------------------------------------

def full_adder(a, b, cin):
    """sum = a XOR b XOR cin, carry = majority; 9 NANDs on three wires."""
    return _full_adder(_Builder((a, b, cin)), a, b, cin)


def _full_adder(g, a, b, cin, with_sum=True):
    """Two half adders plus the OR of their carries, which collapses to
    NAND(NAND(s1, cin), NAND(a, b)) on the XORs' first NANDs (9 NANDs, 6
    without the sum).  A carry-in of constant 1 gives carry = OR(a, b) =
    NAND(NOT a, NOT b) and sum = XNOR(a, b) = NAND(NAND(a, b), carry): 3
    NANDs, where folding the 9 leaves 5 with the carry at depth 4."""
    if cin.const == 1:
        carry = g.nand(g.not_(a), g.not_(b))
        return (g.nand(g.nand(a, b), carry) if with_sum else None), carry
    s1 = g.xor(a, b)
    total = g.xor(s1, cin) if with_sum else None
    return total, g.nand(g.nand(s1, cin), g.nand(a, b))


def _ha_shared(g, a, b, with_sum=True):
    """Half adder whose carry is the free NOT of its XOR's first NAND
    (4 NANDs, 1 without the sum)."""
    return (g.xor(a, b) if with_sum else None), g.not_(g.nand(a, b))


def _ripple(g, abits, bbits, cin=None, lo=0) -> list:
    """Width-preserving ripple add, its bits lo..: the carry out of the top
    bit is dropped, and the sums below bit ``lo`` are not made."""
    width = len(abits)
    out = []
    carry = cin
    for i in range(width):
        a, b = abits[i], bbits[i]
        if i == width - 1:
            s = g.xor(a, b) if carry is None else g.xor(g.xor(a, b), carry)
        elif carry is None:
            s, carry = _ha_shared(g, a, b, i >= lo)
        else:
            s, carry = _full_adder(g, a, b, carry, i >= lo)
        if i >= lo:
            out.append(s)
    return out


def _check_formats(x: FixedWord, y: FixedWord):
    if x.fmt != y.fmt:
        raise UsageError(f"format mismatch: {x.fmt} vs {y.fmt}")


def add(x: FixedWord, y: FixedWord) -> FixedWord:
    """Two's-complement sum, wrapping on overflow; 9F - 6 NANDs."""
    _check_formats(x, y)
    return FixedWord(tuple(_ripple(_Builder(x.bits + y.bits), x.bits, y.bits)), x.fmt)


def sub(x: FixedWord, y: FixedWord) -> FixedWord:
    """x - y by rippling x, the free NOTs of y and a carry-in of 1;
    9F - 7 NANDs."""
    _check_formats(x, y)
    g = _Builder(x.bits + y.bits)
    inverted = [g.not_(b) for b in y.bits]
    return FixedWord(tuple(_ripple(g, x.bits, inverted, cin=g.constant(1))), x.fmt)


def _carry_add(x: FixedWord, y: FixedWord, low: tuple, flip: bool) -> FixedWord:
    """x + y + OR(``low``), or with ``flip`` x + NOT y + NOR(``low``): one
    ripple whose carry-in is a balanced tree of ORs (a NAND of free NOTs).

    The tree reads input bits, so the carry-in comes early: bit 0 makes
    n = NAND(a, b) and o = OR(a, b), then a XOR b = NOT NAND(n, o) and the
    carry NAND(n, NAND(cin, o)), two levels past a and b where a full
    adder's is four, in a full adder's 9 NANDs."""
    _check_formats(x, y)
    g = _Builder(x.bits + y.bits + low)
    level = list(low)
    while len(level) > 1:
        pairs = [g.nand(g.not_(a), g.not_(b)) for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[2 * len(pairs):]
    carry = level[0] if level else g.constant(0)
    ybits = y.bits
    if flip:
        ybits, carry = [g.not_(b) for b in y.bits], g.not_(carry)
    if carry.const is not None:
        return FixedWord(tuple(_ripple(g, x.bits, ybits, cin=carry)), x.fmt)
    a, b = x.bits[0], ybits[0]
    n, o = g.nand(a, b), g.nand(g.not_(a), g.not_(b))
    low_sum = g.xor(g.not_(g.nand(n, o)), carry)
    carry = g.nand(n, g.nand(carry, o))
    return FixedWord((low_sum, *_ripple(g, x.bits[1:], ybits[1:], cin=carry)), x.fmt)


def butterfly_sums(x_re: FixedWord, x_im: FixedWord, a: FixedWord, b: FixedWord,
                   c: FixedWord, d: FixedWord, kind: int | None = None) -> tuple[FixedWord, ...]:
    """The sums (x_re + t_re, x_im + t_im, x_re - t_re, x_im - t_im) of a
    radix-2 butterfly, t = W * x_j, from the words ``product_rule`` gives
    for its ``kind``:

    * None: the four products, t = (a - b, c + d) by ``sub`` and ``add``;
      54F - 39 NANDs;
    * -1 (W = -j): a, b are x_j, t = (b, -a), so the sums are x_re + b,
      x_im - a, x_re - b and x_im + a (c and d are not read);
    * k >= 0 (wim = -wre): a, b are x_j's products by wre and c, d are x_j;
      t = (a + b + OR(low k bits of d), b + NOT a + NOR(low k bits of c)).

    Each step is the gates of its own ``add``, ``sub`` or carry-in ripple.
    """
    kind = _sums_kind(kind, x_re.fmt)
    if kind is None:
        t_re, t_im = sub(a, b), add(c, d)
    elif kind == -1:
        return add(x_re, b), sub(x_im, a), sub(x_re, b), add(x_im, a)
    else:
        t_re = _carry_add(a, b, d.bits[:kind], False)
        t_im = _carry_add(b, a, c.bits[:kind], True)
    return add(x_re, t_re), add(x_im, t_im), sub(x_re, t_re), sub(x_im, t_im)


def _sums_kind(kind, fmt: FixedFormat) -> int | None:
    """``kind`` as a ``butterfly_sums`` kind of ``fmt`` (None, or an integer
    from -1 to the width); anything else raises ``UsageError``."""
    if kind is None:
        return None
    if not (_is_count(kind, -1) and kind <= fmt.total_bits):
        raise UsageError(f"butterfly_sums kind must be None, -1 or a low-bit count up to "
                         f"{fmt.total_bits}, got {kind!r}")
    return int(kind)


# -- multipliers -----------------------------------------------------------

def _reduce_columns(g, cols):
    """Carry-save 3->2 layers until every column holds at most two bits."""
    while any(len(col) > 2 for col in cols):
        nxt = [[] for _ in cols]
        for ci, col in enumerate(cols):
            i = 0
            while len(col) - i >= 2:  # full adders, then one half adder on a pair left
                k = min(3, len(col) - i)
                s, cy = (_full_adder if k == 3 else _ha_shared)(g, *col[i:i + k])
                i += k
                nxt[ci].append(s)
                if ci + 1 < len(cols):
                    nxt[ci + 1].append(cy)
            nxt[ci].extend(col[i:])
        cols = nxt
    return cols


def _final_add(g, cols, lo: int) -> list:
    """Bits lo.. of the sum of the (at most two) bits of each column."""
    zero = g.constant(0)
    arow = [col[0] if len(col) > 0 else zero for col in cols]
    brow = [col[1] if len(col) > 1 else zero for col in cols]
    return _ripple(g, arow, brow, lo=lo)


def _sign_extend(bits, width):
    bits = list(bits)
    return bits + [bits[-1]] * (width - len(bits))


def _product_bits(g, x: FixedWord, y: FixedWord, lo: int, hi: int) -> list:
    """Bits lo..hi-1 of the sign-extended product of two words."""
    xb = _sign_extend(x.bits, hi)
    yb = _sign_extend(y.bits, hi)
    cols = [[] for _ in range(hi)]
    for i in range(hi):
        for j in range(hi - i):
            cols[i + j].append(g.and_(xb[i], yb[j]))
    return _final_add(g, _reduce_columns(g, cols), lo)


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


def _product_bits_const(g, x: FixedWord, c_int: int, lo: int, hi: int) -> list:
    """Like _product_bits with one operand known: one row per CSD digit.

    A digit +1 at j adds x << j.  A digit -1 adds -x << j = (~x << j) + 2**j
    (mod 2**hi): the row of the free NOTs of x's bits, and all the 2**j go
    into one constant of ``constant(1)`` bits.
    """
    digits = csd_digits(c_int, hi)
    rows = {1: _sign_extend(x.bits, hi)}
    if -1 in digits:
        rows[-1] = _sign_extend([g.not_(b) for b in x.bits], hi)
    cols = [[] for _ in range(hi)]
    for j, d in enumerate(digits):
        if d:
            row = rows[d]
            for i in range(hi - j):
                cols[i + j].append(row[i])
    correction = sum(1 << j for j, d in enumerate(digits) if d < 0) % (1 << hi)
    for j in range(hi):
        if (correction >> j) & 1:
            cols[j].append(g.constant(1))
    return _final_add(g, _reduce_columns(g, cols), lo)


def mul_integer(x: FixedWord, y: FixedWord) -> FixedWord:
    """Integer product of the raw words, high bits dropped (wraps mod 2^F)."""
    _check_formats(x, y)
    g = _Builder(x.bits + y.bits)
    return FixedWord(tuple(_product_bits(g, x, y, 0, x.fmt.total_bits)), x.fmt)


def mul_fixed(x: FixedWord, y: FixedWord) -> FixedWord:
    """Fixed-point product: bits [f, f+F) of the extended product.

    The window drop is a truncation (floor toward minus infinity), so the
    result value is floor(x * y * 2^f) / 2^f up to the operands' own
    quantization.
    """
    _check_formats(x, y)
    fmt = x.fmt
    g = _Builder(x.bits + y.bits)
    return FixedWord(tuple(_product_bits(g, x, y, fmt.frac_bits,
                                         fmt.frac_bits + fmt.total_bits)), fmt)


def mul_const(x: FixedWord, c: float) -> FixedWord:
    """Fixed-point product with a plaintext constant.

    Bit-identical to ``mul_fixed(x, <encryption of c>)``.  Only the
    nonzero CSD digits of c cost partial-product rows; the digits are
    public circuit structure (traceable by an observer of the evaluation,
    which is the accepted cost/secrecy trade of constant multiplication).
    """
    fmt = x.fmt
    bits = _product_bits_const(_Builder(x.bits), x, encode_int(c, fmt), fmt.frac_bits,
                               fmt.frac_bits + fmt.total_bits)
    return FixedWord(tuple(bits), fmt)


# -- butterfly product rule -------------------------------------------------

class ProductRule(NamedTuple):
    """How a butterfly makes t = W * x_j: its constant products, each
    (part of x_j, 0 real or 1 imaginary; multiplier integer), the four words
    after x_i of its ``butterfly_sums`` row, as indices into its products
    followed by x_j's real and imaginary words, and its sums ``kind``."""

    products: tuple
    words: tuple
    kind: int | None


def product_rule(wre: int, wim: int, fmt: FixedFormat) -> ProductRule:
    """The product rule of a butterfly whose twiddle quantizes to the
    integers (wre, wim) of ``fmt`` (``encode_int``), bit-identical to the
    four products (x_j.re * wre, x_j.im * wim, x_j.re * wim, x_j.im * wre):

    * (0, -2^f), W = -j: no product; the sums take x_j itself;
    * wre = wim (W(s, 3s/8)): p = x_j.re * wre and q = x_j.im * wre, each
      read twice, as (p, q, p, q);
    * wim = -wre, wre > 0 (W(s, s/8)): the same two products q_re, q_im.  In
      F-bit two's complement floor(-y) = NOT floor(y) + [y is an integer],
      so x * -wre is NOT (x * wre) plus 1 where the low k = max(0, f -
      v2(wre)) bits of x are 0; the sums (kind k) fold that into carry-ins;
    * any other: the four products (W = 1's fold).  So does wim = -wre
      with wre < 0, which no forward transform has: its products by wim
      can fold where those by wre cannot (x * 2^e costs no gate, x * -2^e
      a ripple).
    """
    if (wre, wim) == (0, -fmt.scale):
        return ProductRule((), (0, 1, 0, 1), -1)
    if wre == wim:
        return ProductRule(((0, wre), (1, wre)), (0, 1, 0, 1), None)
    if wim == -wre and wre > 0:
        v2 = (wre & -wre).bit_length() - 1
        return ProductRule(((0, wre), (1, wre)), (0, 1, 2, 3), max(0, fmt.frac_bits - v2))
    return ProductRule(((0, wre), (1, wim), (0, wim), (1, wre)), (0, 1, 2, 3), None)
