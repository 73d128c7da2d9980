import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_util import pack_int_word, unpack_int_word, wrap_signed
from fhefft.arith import (
    FixedFormat,
    FixedWord,
    add,
    bits_to_int,
    constant_word,
    csd_digits,
    decode,
    encode,
    encode_int,
    full_adder,
    half_adder,
    input_word,
    mul_const,
    mul_fixed,
    mul_integer,
    read_word,
    sub,
)
from fhefft.engine import CleartextEngine, FheEngine
from fhefft.errors import RangeError, UsageError
from fhefft.fft import TwiddleTable

F32 = FixedFormat(32, 16)
F8 = FixedFormat(8, 4)


# -- codec ------------------------------------------------------------------

def test_encode_half():
    assert encode_int(0.5, F32) == 32768
    assert bits_to_int(encode(0.5, F32), signed=False) == 32768


def test_encode_zero_is_all_zero_bits():
    assert encode(0.0, F32) == [0] * 32


def test_encode_minus_one_twos_complement():
    bits = encode(-1.0, F32)
    assert bits_to_int(bits, signed=False) == 2**32 - 65536
    assert bits_to_int(bits, signed=True) == -65536


def test_encode_out_of_range():
    for x in (2.0**15, 1e308, float("inf"), float("nan")):
        with pytest.raises(RangeError):
            encode(x, F32)


def test_format_validation():
    with pytest.raises(UsageError):
        FixedFormat(8, 8)
    with pytest.raises(UsageError):
        FixedFormat(8, 0)
    assert FixedFormat(1024, 8).total_bits == 1024
    with pytest.raises(UsageError, match="float64"):  # 2.0 ** 1024 overflows
        FixedFormat(1025, 8)


@given(st.floats(min_value=-32767.0, max_value=32767.0,
                 allow_nan=False, allow_infinity=False))
def test_encode_decode_within_half_step(x):
    assert abs(decode(encode(x, F32), F32) - x) <= 2.0**-17


@given(st.integers(min_value=-2**31, max_value=2**31 - 1))
def test_decode_encode_identity_on_grid(ix):
    x = ix / F32.scale
    assert decode(encode(x, F32), F32) == x


# -- adders -------------------------------------------------------------------

def test_half_adder_truth_table_and_cost():
    for a in (0, 1):
        for b in (0, 1):
            eng = CleartextEngine()
            s, c = half_adder(eng.input_bit(a), eng.input_bit(b))
            assert (eng.read_back(s), eng.read_back(c)) == ((a + b) % 2, (a + b) // 2)
            assert eng.nand_count == 6


def test_full_adder_truth_table_and_cost():
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                eng = CleartextEngine()
                s, c = full_adder(eng.input_bit(a), eng.input_bit(b), eng.input_bit(cin))
                total = a + b + cin
                assert (eng.read_back(s), eng.read_back(c)) == (total % 2, total // 2)
                assert eng.nand_count == 9


def test_add_exhaustive_8bit_wraparound():
    pairs = [(a, b) for a in range(256) for b in range(256)]
    eng = CleartextEngine(batch_size=len(pairs))
    x = pack_int_word(eng, [p[0] for p in pairs], 8)
    y = pack_int_word(eng, [p[1] for p in pairs], 8)
    out = unpack_int_word(eng, add(x, y), signed=False)
    assert eng.nand_count == 9 * 8 - 5
    for (a, b), got in zip(pairs, out):
        assert got == (a + b) % 256


def test_sub_exhaustive_8bit_wraparound():
    pairs = [(a, b) for a in range(256) for b in range(256)]
    eng = CleartextEngine(batch_size=len(pairs))
    x = pack_int_word(eng, [p[0] for p in pairs], 8)
    y = pack_int_word(eng, [p[1] for p in pairs], 8)
    out = unpack_int_word(eng, sub(x, y), signed=False)
    assert eng.nand_count == 10 * 8 - 3
    for (a, b), got in zip(pairs, out):
        assert got == (a - b) % 256


def test_add_dyadic_example():
    eng = CleartextEngine()
    total = add(input_word(eng, 0.25, F32), input_word(eng, 0.5, F32))
    assert read_word(eng, total) == [0.75]


def test_add_zero_is_bit_identical():
    eng = CleartextEngine()
    x = input_word(eng, -3.125, F32)
    zero = input_word(eng, 0.0, F32)
    out = add(x, zero)
    assert [eng.read_back(b) for b in out.bits] == [eng.read_back(b) for b in x.bits]


def test_sub_self_is_zero():
    eng = CleartextEngine()
    x = input_word(eng, 7.75, F8 if False else F32)
    assert read_word(eng, sub(x, x)) == [0.0]


def test_sub_dyadic_example():
    eng = CleartextEngine()
    out = sub(input_word(eng, 0.75, F32), input_word(eng, 0.5, F32))
    assert read_word(eng, out) == [0.25]


def test_add_format_mismatch_rejected():
    eng = CleartextEngine()
    with pytest.raises(UsageError):
        add(input_word(eng, 0.5, F32), input_word(eng, 0.5, F8))


def test_add_cost_at_width_32_below_linear_bound():
    eng = CleartextEngine()
    add(input_word(eng, 1.5, F32), input_word(eng, 2.5, F32))
    assert eng.nand_count == 9 * 32 - 5
    assert eng.nand_count <= 36 * 32


# -- multipliers ----------------------------------------------------------------

def test_mul_integer_small_signed_product():
    eng = CleartextEngine()
    x = pack_int_word(eng, [3], 8)
    y = pack_int_word(eng, [-2], 8)
    assert unpack_int_word(eng, mul_integer(x, y)) == [-6]


def test_mul_integer_identity():
    eng = CleartextEngine()
    x = pack_int_word(eng, [-93], 8)
    one = pack_int_word(eng, [1], 8)
    assert unpack_int_word(eng, mul_integer(x, one)) == [-93]


def test_mul_integer_exhaustive_6bit_signed():
    pairs = [(a, b) for a in range(-32, 32) for b in range(-32, 32)]
    eng = CleartextEngine(batch_size=len(pairs))
    x = pack_int_word(eng, [p[0] for p in pairs], 6)
    y = pack_int_word(eng, [p[1] for p in pairs], 6)
    out = unpack_int_word(eng, mul_integer(x, y))
    assert eng.nand_count <= 288 * 36 * math.log2(6)
    for (a, b), got in zip(pairs, out):
        assert got == wrap_signed(a * b, 6)


def test_mul_fixed_dyadic():
    eng = CleartextEngine()
    out = mul_fixed(input_word(eng, 0.5, F32), input_word(eng, 0.5, F32))
    assert read_word(eng, out) == [0.25]


def test_mul_fixed_annihilator():
    eng = CleartextEngine()
    out = mul_fixed(input_word(eng, 0.8125, F32), input_word(eng, 0.0, F32))
    assert read_word(eng, out) == [0.0]


def test_mul_fixed_quantization_bound_random(rng):
    xs = rng.uniform(-1, 1, 400)
    ys = rng.uniform(-1, 1, 400)
    eng = CleartextEngine(batch_size=len(xs))
    out = mul_fixed(input_word(eng, list(xs), F32), input_word(eng, list(ys), F32))
    assert eng.nand_count <= 288 * 32**2 * math.log2(32)
    for got, x, y in zip(read_word(eng, out), xs, ys):
        assert abs(got - x * y) <= 2**-16 + 2**-16 + 2**-32


def test_mul_const_identity_and_annihilator():
    eng = CleartextEngine()
    x = input_word(eng, -0.3125, F32)
    out1 = mul_const(x, 1.0)
    assert [eng.read_back(b) for b in out1.bits] == [eng.read_back(b) for b in x.bits]
    assert eng.nand_count == 0  # single partial row, no reduction work
    assert read_word(eng, mul_const(x, 0.0)) == [0.0]


def test_mul_const_matches_mul_fixed_bit_for_bit(rng):
    """mul_const equals mul_fixed by an input word of the same constant, for
    every twiddle component of the M = 128 table at 32.16 and the M = 16
    table at 16.8, for the edge constants and for random constants."""
    for fmt, m in ((F32, 128), (FixedFormat(16, 8), 16)):
        step = 1 / fmt.scale
        top = (1 << (fmt.total_bits - 1)) * step  # magnitude of the most negative word
        table = TwiddleTable(m, fmt)
        consts = sorted({c for size in (2 ** e for e in range(1, m.bit_length()))
                         for k in range(size // 2) for c in table.twiddle(size, k)}
                        | {0.0, 1.0, -1.0, step, -step, -top}
                        | {float(c) for c in rng.uniform(-1, 1, 20)})
        xs = [-top, top - step, *rng.uniform(-1, 1, 4), *rng.uniform(-top, top - step, 2)]
        lanes = len(xs)
        # the reference: one mul_fixed with a lane for every (constant, x) pair
        ref = CleartextEngine(batch_size=len(consts) * lanes)
        want = [ref.read_back(b) for b in mul_fixed(
            input_word(ref, xs * len(consts), fmt),
            input_word(ref, [c for c in consts for _ in xs], fmt)).bits]
        for n, c in enumerate(consts):
            eng = CleartextEngine(batch_size=lanes)
            got = [eng.read_back(b) for b in mul_const(input_word(eng, xs, fmt), c).bits]
            assert got == [(w >> (n * lanes)) & eng.mask for w in want], (fmt, c)


@given(st.integers(min_value=1, max_value=80).flatmap(
    lambda width: st.tuples(st.integers(), st.just(width))))
def test_csd_digits_are_canonical(v_width):
    v, width = v_width
    digits = csd_digits(v, width)
    assert len(digits) <= width
    assert set(digits) <= {-1, 0, 1}
    assert not any(a and b for a, b in zip(digits, digits[1:]))  # non-adjacent
    assert sum(d << j for j, d in enumerate(digits)) % (1 << width) == v % (1 << width)


@given(st.integers(min_value=-128, max_value=127),
       st.integers(min_value=-128, max_value=127))
@settings(max_examples=60, deadline=None)
def test_add_sub_property_8bit(a, b):
    eng = CleartextEngine(batch_size=1)
    x = pack_int_word(eng, [a], 8)
    y = pack_int_word(eng, [b], 8)
    assert unpack_int_word(eng, add(x, y)) == [wrap_signed(a + b, 8)]
    assert unpack_int_word(eng, sub(x, y)) == [wrap_signed(a - b, 8)]


def test_add_sub_randomized_32bit(rng):
    ints = rng.integers(-2**31, 2**31, (64, 2))
    eng = CleartextEngine(batch_size=64)
    x = pack_int_word(eng, [int(a) for a, _ in ints], 32)
    y = pack_int_word(eng, [int(b) for _, b in ints], 32)
    sums = unpack_int_word(eng, add(x, y))
    diffs = unpack_int_word(eng, sub(x, y))
    for (a, b), s, d in zip(ints, sums, diffs):
        assert s == wrap_signed(int(a) + int(b), 32)
        assert d == wrap_signed(int(a) - int(b), 32)


# -- FHE backend spot checks --------------------------------------------------

def test_add_on_fhe_backend(exact_scheme, exact_keys, rng):
    fhe = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    for a, b in ((3, 5), (-7, 100), (127, 127)):
        x = pack_int_word(fhe, [a], 8)
        y = pack_int_word(fhe, [b], 8)
        assert unpack_int_word(fhe, add(x, y)) == [wrap_signed(a + b, 8)]


def test_mul_on_fhe_backend(exact_scheme, exact_keys, rng):
    fhe = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    x = pack_int_word(fhe, [-5], 4)
    y = pack_int_word(fhe, [3], 4)
    assert unpack_int_word(fhe, mul_integer(x, y)) == [wrap_signed(-15, 4)]


def test_sub_and_mul_fixed_on_fhe_backend(exact_scheme, exact_keys, rng):
    fmt = FixedFormat(8, 4)
    fhe = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    clear = CleartextEngine()
    for ex, ey in ((0.75, 0.5), (-0.5, 0.25)):
        got_f = read_word(fhe, sub(input_word(fhe, ex, fmt), input_word(fhe, ey, fmt)))
        got_c = read_word(clear, sub(input_word(clear, ex, fmt), input_word(clear, ey, fmt)))
        assert got_f == got_c
        got_f = read_word(fhe, mul_fixed(input_word(fhe, ex, fmt), input_word(fhe, ey, fmt)))
        got_c = read_word(clear, mul_fixed(input_word(clear, ex, fmt), input_word(clear, ey, fmt)))
        assert got_f == got_c


def test_constant_word_folds_for_free():
    eng = CleartextEngine()
    x = input_word(eng, 0.625, F32)
    out = add(x, constant_word(eng, 0.25, F32))
    assert read_word(eng, out) == [0.875]
    assert eng.nand_count < 9 * 32 - 5  # constant bits fold away gates


def _lane_masks(ints, width):
    """Per-bit lane masks of raw integers, built one lane and bit at a time."""
    ints = [iv % (1 << width) for iv in ints]
    return [sum(((iv >> bit) & 1) << lane for lane, iv in enumerate(ints))
            for bit in range(width)]


def _loop_read(masks, fmt, lanes):
    return [decode([(m >> lane) & 1 for m in masks], fmt) for lane in range(lanes)]


CODEC_FORMATS = [FixedFormat(8, 4), FixedFormat(12, 3), FixedFormat(16, 8), F32,
                 FixedFormat(64, 32), FixedFormat(72, 40)]


@pytest.mark.parametrize("fmt", CODEC_FORMATS, ids=lambda f: f"{f.total_bits}.{f.frac_bits}")
@pytest.mark.parametrize("lanes", [1, 7, 8, 9, 63, 64, 65, 100])
def test_word_io_matches_the_per_lane_loop(fmt, lanes, rng):
    """input_word and read_word work on whole lane arrays; their bits and
    values equal those of ``encode_int`` and ``decode`` lane by lane."""
    top = (1 << (fmt.total_bits - 1)) / fmt.scale
    step = 1 / fmt.scale
    # the largest float that still encodes (top - step rounds to top past 53 bits)
    most_positive = top - step if top - step < top else float(np.nextafter(top, 0))
    special = [-top, most_positive, -0.0,
               0.5 * step, 1.5 * step, 2.5 * step, -0.5 * step, -1.5 * step,  # ties
               -top + 0.5 * step]  # rounds to even: the most negative word
    values = list(rng.uniform(-top, top - step, lanes))
    values[:len(special)] = special[:lanes]
    eng = CleartextEngine(batch_size=lanes)
    word = input_word(eng, values, fmt)
    masks = [eng.read_back(h) for h in word.bits]
    assert masks == _lane_masks([encode_int(v, fmt) for v in values], fmt.total_bits)
    assert read_word(eng, word) == _loop_read(masks, fmt, lanes)


@pytest.mark.parametrize("fmt", CODEC_FORMATS + [FixedFormat(85, 10)],
                         ids=lambda f: f"{f.total_bits}.{f.frac_bits}")
def test_read_word_of_any_bits_matches_decode(fmt, rng):
    """Words no float input encodes to (all 64 or 72 bits significant)
    decode like ``decode``, correctly rounded."""
    width, lanes = fmt.total_bits, 65
    ints = [int.from_bytes(rng.bytes(11), "little") for _ in range(lanes)]
    ints[:3] = [1 << (width - 1), (1 << (width - 1)) - 1, -1]  # min, max, -1
    eng = CleartextEngine(batch_size=lanes)
    masks = _lane_masks(ints, width)
    word = FixedWord(tuple(eng.input_bit(m) for m in masks), fmt)
    assert read_word(eng, word) == _loop_read(masks, fmt, lanes)


@pytest.mark.parametrize("bad", [2.0**15, 2.0**15 - 2.0**-17, -2.0**15 - 2.0**-16, 1e308,
                                 float("inf"), float("-inf"), float("nan")])
def test_input_word_range_errors_match_encode_int(bad):
    with pytest.raises(RangeError) as want:
        encode_int(bad, F32)
    eng = CleartextEngine(batch_size=4)
    for values in (bad, [0.5, bad, 0.25, 2.0**20]):
        with pytest.raises(RangeError) as got:
            input_word(eng, values, F32)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("scalar", [np.float32(0.5), np.int64(2), np.float64(-1.25), 3, True],
                         ids=repr)
def test_input_word_broadcasts_real_scalars(scalar):
    eng = CleartextEngine(batch_size=3)
    assert read_word(eng, input_word(eng, scalar, F32)) == [float(scalar)] * 3


@pytest.mark.parametrize("values", ["0.5", None, 1 + 2j, [0.5, "x", 1.0], [0.5, None, 1.0],
                                    [[0.5], [1.0, 2.0], [3.0]], [0.5, 1.0], [[0.5, 1.0, 2.0]]],
                         ids=repr)
def test_input_word_rejects_values_that_are_not_one_real_per_lane(values):
    with pytest.raises(UsageError):
        input_word(CleartextEngine(batch_size=3), values, F32)


def test_word_io_on_fhe_backend(exact_scheme, exact_keys, rng):
    eng = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    for x in (-8.0, -0.0625, 0.0, 7.9375):
        assert read_word(eng, input_word(eng, x, F8)) == [x]
