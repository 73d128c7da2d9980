import hashlib

import numpy as np
import pytest

from circuit_util import (
    bit_reverse_permute,
    butterfly,
    gate_by_gate_fft,
    signal_from_bits,
    signal_of,
)
from fhefft import engine, fft, fileio, netlist
from fhefft.arith import FixedFormat, constant_word, encode_int, input_word, read_word
from fhefft.engine import CleartextEngine, FheEngine
from fhefft.error_model import ErrorParams, butterfly_error, fft_error_bound
from fhefft.errors import NoiseOverflowError, RangeError, UsageError
from fhefft.fft import (
    ComplexFixed,
    SignalBuffer,
    TwiddleTable,
    fft_1d,
    fft_2d,
    input_signal,
    read_signal,
)

F32 = FixedFormat(32, 16)
F16 = FixedFormat(16, 8)


def lane0(engine, sig):
    return read_signal(engine, sig)[0]


def test_bit_reversal_order_m8():
    eng = CleartextEngine()
    sig = input_signal(eng, [complex(i, 0) / 16 for i in range(8)], F32)
    out = bit_reverse_permute(sig)
    got = [v.real * 16 for v in lane0(eng, out)]
    assert got == [0, 4, 2, 6, 1, 5, 3, 7]
    assert eng.nand_count == 0  # pure index shuffle


def test_bit_reversal_m2_identity():
    eng = CleartextEngine()
    sig = input_signal(eng, [0.25, 0.5], F32)
    out = bit_reverse_permute(sig)
    assert np.allclose(lane0(eng, out), [0.25, 0.5])


def test_bit_reversal_involution_m16():
    eng = CleartextEngine()
    vals = [complex(i, -i) / 64 for i in range(16)]
    sig = input_signal(eng, vals, F32)
    out = bit_reverse_permute(bit_reverse_permute(sig))
    assert np.allclose(lane0(eng, out), vals)


def test_butterfly_unit_twiddle():
    eng = CleartextEngine()
    sig = input_signal(eng, [0.0, 0.5], F32)
    hi, lo = butterfly(sig.points[0], sig.points[1], (1.0, 0.0))
    spec = lane0(eng, signal_of((hi, lo), 2))
    assert spec[0] == pytest.approx(0.5)
    assert spec[1] == pytest.approx(-0.5)


def test_butterfly_axis_rotation():
    # W = -i applied to x_j = i gives t = 1, outputs (1, -1)
    eng = CleartextEngine()
    sig = input_signal(eng, [0.0 + 0.0j, 0.0 + 1.0j], F32)
    hi, lo = butterfly(sig.points[0], sig.points[1], (0.0, -1.0))
    spec = lane0(eng, signal_of((hi, lo), 2))
    assert spec[0] == pytest.approx(1.0)
    assert spec[1] == pytest.approx(-1.0)


def test_butterfly_error_within_analytical_bound(rng):
    delta = 2.0**-16
    for _ in range(200):
        w = complex(*rng.uniform(-1, 1, 2))
        xi = complex(*rng.uniform(0, 1, 2))
        xj = complex(*rng.uniform(0, 1, 2))
        wq = complex(np.round(w.real * 65536) / 65536,
                     np.round(w.imag * 65536) / 65536)
        eng = CleartextEngine()
        sig = input_signal(eng, [xi, xj], F32)
        hi, lo = butterfly(sig.points[0], sig.points[1], (wq.real, wq.imag))
        got = lane0(eng, signal_of((hi, lo), 2))
        exact_hi = xi + wq * xj
        exact_lo = xi - wq * xj
        # the analytical per-output bound holds component-wise with the
        # magnitude form |err| <= delta * (|W| parts + |xj| parts + 1)
        cap = abs(butterfly_error(complex(abs(wq.real), abs(wq.imag)),
                                  complex(abs(xj.real), abs(xj.imag)), delta))
        assert abs((got[0] - exact_hi).real) <= cap + delta
        assert abs((got[0] - exact_hi).imag) <= cap + delta
        assert abs((got[1] - exact_lo).real) <= cap + delta
        assert abs((got[1] - exact_lo).imag) <= cap + delta


def test_signal_bit_layout_round_trips():
    """``bits`` lists points in order, real word before imaginary, LSB
    first; ``signal_from_bits`` rebuilds the same signal from that list."""
    eng = CleartextEngine()
    sig = input_signal(eng, [0.5 + 0.25j, -0.75j, 1.0, 0.125], F16, dims=(2, 2))
    bits = sig.bits()
    assert bits == [h for pt in sig.points for word in (pt.re, pt.im) for h in word.bits]
    assert signal_from_bits(bits, F16, (2, 2)) == sig
    for short in (bits[:-1], bits[:-16]):
        with pytest.raises(UsageError):
            signal_from_bits(short, F16, (2, 2))


# formats up to 96.48, past the 85 bits where read_word rounds twice
CODEC_FORMATS = [F16, F32, FixedFormat(64, 32), FixedFormat(96, 48)]


def _fmt_id(fmt):
    return f"{fmt.total_bits}.{fmt.frac_bits}"


def _per_word_signal(engine, values, fmt):
    """input_signal as one input_word per word, in layout order."""
    arr = np.broadcast_to(np.atleast_2d(np.asarray(values, dtype=complex)),
                          (engine.batch_size, np.shape(values)[-1]))
    words = [input_word(engine, part, fmt) for col in arr.T for part in (col.real, col.imag)]
    return signal_from_bits([h for w in words for h in w.bits], fmt, arr.shape[1])


def _per_word_read(engine, signal):
    """read_signal as one read_word per word."""
    out = np.empty((engine.batch_size, len(signal.points)), dtype=complex)
    for col, pt in enumerate(signal.points):
        out.real[:, col] = read_word(engine, pt.re)
        out.imag[:, col] = read_word(engine, pt.im)
    return out


def _codec_values(rng, fmt, lanes, m):
    """(lanes, m) complex values over the whole range of a format, with its
    extremes and rounding ties in the first components."""
    top = (1 << (fmt.total_bits - 1)) / fmt.scale
    step = 1 / fmt.scale
    parts = rng.uniform(-top, top, (lanes, m, 2))
    special = [-top, float(np.nextafter(top, 0)) if top - step == top else top - step,
               0.5 * step, 2.5 * step, -1.5 * step, -top + 0.5 * step]
    parts.reshape(-1)[:len(special)] = special[:parts.size]
    return parts @ [1, 1j]


def _constant_outputs(engine, signal):
    """A 2-point transform whose imaginary output words are all constant bits:
    of a point with a constant imaginary word, and a constant point."""
    fmt = signal.fmt
    x = ComplexFixed(signal.points[0].re, constant_word(engine, -1, fmt))
    c = ComplexFixed(constant_word(engine, 0.5, fmt), constant_word(engine, 0.25, fmt))
    return fft_1d(signal_of((x, c), 2))


@pytest.mark.parametrize("fmt", CODEC_FORMATS, ids=_fmt_id)
@pytest.mark.parametrize("lanes", [1, 7, 8, 9, 100])
def test_signal_codec_matches_the_per_word_loop(fmt, lanes, rng):
    """input_signal and read_signal make the wires and values of
    input_word and read_word on each word, for encoded values, for any lane
    bits, and for transform outputs with constant bits."""
    eng = CleartextEngine(batch_size=lanes)
    values = _codec_values(rng, fmt, lanes, 4)
    sig = input_signal(eng, values, fmt)
    assert sig == _per_word_signal(eng, values, fmt)
    raw = SignalBuffer(eng, fmt, 4, eng.input_wires(
        rng.integers(0, 2, (4, 2, fmt.total_bits, lanes))))
    out = _constant_outputs(eng, sig)
    assert (out.wires["c"] >= 0).any() and (out.wires["c"] < 0).any()
    for s in (sig, raw, out):
        assert read_signal(eng, s).tobytes() == _per_word_read(eng, s).tobytes()


@pytest.mark.parametrize("fmt", CODEC_FORMATS, ids=_fmt_id)
def test_signal_codec_matches_the_per_word_loop_on_fhe(fmt, exact_scheme, exact_keys):
    """On the FHE engine the signal codec makes one encrypt_bit per bit in
    layout order, so its ciphertexts are the per-word loop's; its readout
    equals read_word's, constant bits included."""
    values = _codec_values(np.random.default_rng(5), fmt, 1, 2)
    sigs = [make(FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(9)),
                 values, fmt) for make in (input_signal, _per_word_signal)]
    got, want = ([h.ct for h in s.bits()] for s in sigs)
    assert [(ct.level, ct.noise_est) for ct in got] == [(ct.level, ct.noise_est) for ct in want]
    assert np.array_equal([ct.words for ct in got], [ct.words for ct in want])
    eng = sigs[0].engine
    c = ComplexFixed(constant_word(eng, 0.5, fmt), sigs[0].points[0].im)
    for s in (sigs[0], signal_of((sigs[0].points[1], c), 2)):
        assert read_signal(eng, s).tobytes() == _per_word_read(eng, s).tobytes()


@pytest.mark.parametrize("bad", [2.0**15, -2.0**15 - 2.0**-16, 1e308, float("inf"),
                                 float("nan")])
def test_signal_range_error_names_the_per_word_loop_value(bad):
    """Out of range, input_signal names the value the per-word loop names:
    the first bad point, its real word before its imaginary, then the first
    bad lane."""
    values = np.full((3, 4), 0.25 - 0.5j)  # (lanes, points)
    values[0, 1] = complex(0.5, 4e4)  # point 1 imaginary, lane 0
    values[1, 1] = complex(0.5, -5e4)  # point 1 imaginary, lane 1
    values[2, 1] = complex(bad, 0.5)  # point 1 real, lane 2: the first
    values[0, 3] = complex(6e4, 0)  # a later point, lane 0
    messages = []
    for make in (input_signal, _per_word_signal):
        with pytest.raises(RangeError) as err:
            make(CleartextEngine(batch_size=3), values, F32)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0] == str(_range_message(bad))


def _range_message(bad):
    with pytest.raises(RangeError) as err:
        encode_int(bad, F32)
    return err.value


def test_input_signal_refuses_an_int_past_the_float64_range():
    with pytest.raises(RangeError):
        input_signal(CleartextEngine(), [10**400], F32)


@pytest.mark.parametrize("values", [["a"], [[1, 2], [3]]], ids=repr)
def test_input_signal_refuses_values_that_are_not_numbers(values):
    with pytest.raises(UsageError):
        input_signal(CleartextEngine(), values, F32)


def test_read_signal_rejects_another_engines_signal():
    sig = input_signal(CleartextEngine(batch_size=2), [0.5, 0.25], F16)
    with pytest.raises(UsageError):
        read_signal(CleartextEngine(batch_size=2), sig)


def test_wire_backed_signal_keeps_the_tracer_interface():
    """What bench/tracing.py reads and wraps: the engine behind
    ``signal.points[0].re``, the hook of ``fft_1d(signal, table,
    on_butterfly)`` in stage order after each stage, and the word-level
    names in ``fft``."""
    eng = CleartextEngine(batch_size=3)
    sig = input_signal(eng, np.full((3, 8), 0.5 - 0.25j), F32)
    assert sig.points[0].re.engine is eng
    seen = []
    out = fft_1d(sig, None, lambda size, i, j: seen.append((size, i, j, eng.nand_count)))
    assert [s[:3] for s in seen] == [(size, start + k, start + k + size // 2)
                                     for size in (2, 4, 8) for start in range(0, 8, size)
                                     for k in range(size // 2)]
    counts = {size: {n for s, _, _, n in seen if s == size} for size in (2, 4, 8)}
    assert all(len(c) == 1 for c in counts.values())  # a stage runs before its hooks
    assert 0 < min(counts[2]) < min(counts[4]) < min(counts[8]) == eng.nand_count
    assert out.engine is eng and out.points[0].re.engine is eng
    for name in ("input_word", "read_word", "add", "sub", "mul_const"):
        assert callable(vars(fft)[name])


def test_twiddle_table_components_bounded():
    table = TwiddleTable(64, F32)
    for size in (2, 4, 8, 16, 32, 64):
        for k in range(size // 2):
            re, im = table.twiddle(size, k)
            assert abs(re) <= 1.0 and abs(im) <= 1.0


def test_fft_impulse_m8():
    eng = CleartextEngine()
    sig = input_signal(eng, [1.0] + [0.0] * 7, F32)
    spec = lane0(eng, fft_1d(sig))
    bound = fft_error_bound(ErrorParams(2.0**-16, 1.0, 8))
    assert np.all(np.abs(np.array(spec) - 1.0) <= bound)


def test_fft_zero_signal_exact():
    eng = CleartextEngine()
    spec = lane0(eng, fft_1d(input_signal(eng, [0.0] * 8, F32)))
    assert all(v == 0 for v in spec)


def test_fft_matches_oracle_within_bound(rng):
    signals = rng.uniform(0, 1, (50, 8)) + 1j * rng.uniform(0, 1, (50, 8))
    eng = CleartextEngine(batch_size=50)
    spec = read_signal(eng, fft_1d(input_signal(eng, signals, F32)))
    bound = fft_error_bound(ErrorParams(2.0**-16, 1.0, 8))
    assert bound == pytest.approx(3.052e-4, rel=1e-3)
    oracle = np.fft.fft(signals, axis=1)
    err = np.abs(np.concatenate([(spec - oracle).real.ravel(),
                                 (spec - oracle).imag.ravel()]))
    assert err.max() <= bound


def test_fft_butterfly_count_instrumented():
    for m in (2, 4, 8, 16):
        eng = CleartextEngine()
        seen = []
        fft_1d(input_signal(eng, [0.5] * m, F32),
               on_butterfly=lambda size, i, j: seen.append((size, i, j)))
        assert len(seen) == (m // 2) * int(np.log2(m))


def test_fft_hook_fires_in_butterfly_order():
    eng = CleartextEngine()
    seen = []
    fft_1d(input_signal(eng, [0.5] * 8, F32),
           on_butterfly=lambda size, i, j: seen.append((size, i, j)))
    assert seen == [(size, start + k, start + k + size // 2) for size in (2, 4, 8)
                    for start in range(0, 8, size) for k in range(size // 2)]


def test_fft_linearity_within_twice_bound(rng):
    a = rng.uniform(0, 0.5, 8) + 1j * rng.uniform(0, 0.5, 8)
    b = rng.uniform(0, 0.5, 8) + 1j * rng.uniform(0, 0.5, 8)
    eng = CleartextEngine(batch_size=3)
    sig = input_signal(eng, np.stack([a, b, a + b]), F32)
    spec = read_signal(eng, fft_1d(sig))
    bound = fft_error_bound(ErrorParams(2.0**-16, 1.0, 8))
    gap = np.abs(spec[0] + spec[1] - spec[2])
    assert gap.max() <= 2 * bound


def test_fft_rejects_wrong_table_size():
    eng = CleartextEngine()
    sig = input_signal(eng, [0.0] * 8, F32)
    with pytest.raises(UsageError):
        fft_1d(sig, TwiddleTable(4, F32))


def test_fft2d_constant_image_is_dc_only():
    eng = CleartextEngine()
    sig = input_signal(eng, [0.5] * 4, F32, dims=(2, 2))
    spec = lane0(eng, fft_2d(sig))
    assert spec[0] == pytest.approx(2.0, abs=1e-4)
    assert np.allclose(np.abs(spec[1:]), 0.0, atol=1e-4)


def test_fft2d_separable_impulse():
    # rank-one impulse: transform is the product of the 1D spectra (all ones)
    eng = CleartextEngine()
    img = np.zeros((4, 4), dtype=complex)
    img[0, 0] = 1.0
    sig = input_signal(eng, img.ravel(), F32, dims=(4, 4))
    spec = np.array(lane0(eng, fft_2d(sig))).reshape(4, 4)
    assert np.allclose(spec, np.ones((4, 4)), atol=1e-3)


def test_fft_backend_equivalence_m2(exact_scheme, exact_keys, rng):
    vals = [0.5 + 0.25j, -0.75 + 0.5j]
    clear = CleartextEngine()
    spec_clear = lane0(clear, fft_1d(input_signal(clear, vals, F16)))
    fhe = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    spec_fhe = lane0(fhe, fft_1d(input_signal(fhe, vals, F16)))
    assert list(spec_clear) == list(spec_fhe)  # decoded values identical bit for bit



# (nand_count, max_depth) of each transform circuit; a change to these is a
# change to the circuit itself, not to how it is evaluated
@pytest.mark.parametrize("bits,frac,m,golden", [
    (16, 8, 2, (550, 34)), (16, 8, 4, (2_200, 40)),
    (16, 8, 8, (9_877, 89)), (16, 8, 16, (35_029, 138)),
    (32, 16, 2, (1_126, 66)), (32, 16, 4, (4_504, 72)),
    (32, 16, 8, (22_693, 143)), (32, 16, 16, (86_743, 211)),
])
def test_fft_gate_count_and_depth_golden(bits, frac, m, golden):
    eng = CleartextEngine()
    fft_1d(input_signal(eng, [0.5] * m, FixedFormat(bits, frac)))
    assert (eng.nand_count, eng.max_depth) == golden


def test_fft2d_gate_count_and_depth_golden():
    eng = CleartextEngine()
    fft_2d(input_signal(eng, [0.5] * 16, F16, dims=(4, 4)))
    assert (eng.nand_count, eng.max_depth) == (17_600, 52)


# sha256 (first 16 hex digits) of the decoded spectra of fixed-seed signals
# with lanes uniform in [-1, 1]; a circuit change may move the NAND counts
# above, but never these bits
@pytest.mark.parametrize("bits,frac,dims,lanes,digest", [
    (32, 16, 8, 100, "06678018f72f5a10"), (32, 16, 16, 100, "32d47f389ae577e5"),
    (32, 16, 32, 100, "8a8ecc6956e00a89"), (32, 16, 64, 100, "76153d2b7fbf5c9b"),
    (32, 16, 128, 100, "ace4a7ad4eb8f899"),
    (16, 8, 2, 100, "d85d819339b2e5df"), (16, 8, 4, 100, "e44e3351924f4dc9"),
    (16, 8, 8, 100, "3d6e091f268fb35b"), (16, 8, 16, 100, "e3a07cb46802d5df"),
    (32, 16, (16, 16), 10, "5d3d66e4c9ab1ca4"),
])
def test_fft_output_bits_golden(bits, frac, dims, lanes, digest):
    m = dims if isinstance(dims, int) else dims[0] * dims[1]
    gen = np.random.default_rng(m + bits)
    values = gen.uniform(-1, 1, (lanes, m)) + 1j * gen.uniform(-1, 1, (lanes, m))
    eng = CleartextEngine(batch_size=lanes)
    sig = input_signal(eng, values, FixedFormat(bits, frac), dims=dims)
    spec = read_signal(eng, fft_1d(sig) if isinstance(dims, int) else fft_2d(sig))
    assert hashlib.sha256(spec.tobytes()).hexdigest()[:16] == digest


# sha256 (first 16 hex digits) of every output wire's depth, for the signals
# above at the benchmark's sizes; how the engine takes depths may change, but
# never these
@pytest.mark.parametrize("dims,lanes,digest", [
    (128, 100, "bcafdde1e333c28e"), ((16, 16), 10, "27c249fffdd06220"),
])
def test_fft_output_depths_golden(dims, lanes, digest):
    m = dims if isinstance(dims, int) else dims[0] * dims[1]
    gen = np.random.default_rng(m + 32)
    values = gen.uniform(-1, 1, (lanes, m)) + 1j * gen.uniform(-1, 1, (lanes, m))
    eng = CleartextEngine(batch_size=lanes)
    sig = input_signal(eng, values, F32, dims=dims)
    out = fft_1d(sig) if isinstance(dims, int) else fft_2d(sig)
    assert hashlib.sha256(out.wires["d"].astype("<i4").tobytes()).hexdigest()[:16] == digest


def _gate_by_gate_fft2d(pts, dims):
    """fft_2d as ``gate_by_gate_fft`` on each row, then on each column."""
    rows, cols = dims
    pts = list(pts)
    fmt = pts[0].fmt
    for r in range(rows):
        pts[r * cols:(r + 1) * cols] = gate_by_gate_fft(pts[r * cols:(r + 1) * cols],
                                                         TwiddleTable(cols, fmt))
    for c in range(cols):
        pts[c::cols] = gate_by_gate_fft(pts[c::cols], TwiddleTable(rows, fmt))
    return pts


def _transforms(dims, fmt):
    """(the batched transform, its gate-by-gate reference) for a signal
    shape, each from a list of handle points to a sequence of them."""
    if isinstance(dims, int):
        return ((lambda pts: fft_1d(signal_of(pts, dims)).points),
                (lambda pts: gate_by_gate_fft(pts, TwiddleTable(dims, fmt))))
    return (lambda pts: fft_2d(signal_of(pts, dims)).points), \
        (lambda pts: _gate_by_gate_fft2d(pts, dims))


def _wires(points):
    return [(h.value, h.depth, h.const) for pt in points
            for word in (pt.re, pt.im) for h in word.bits]


class _ConversionCounting(CleartextEngine):
    """A cleartext engine that logs its handle <-> wire conversions."""

    def __init__(self, batch_size):
        super().__init__(batch_size)
        self.conversions = []

    def wires(self, handles):
        self.conversions.append("wires")
        return super().wires(handles)

    def handles(self, wires):
        self.conversions.append("handles")
        return super().handles(wires)


@pytest.mark.parametrize("m", [1, 2, 16])
def test_one_row_and_one_column_images_are_the_1d_transform(m, rng):
    """A 1D signal compiles as the one-row image: (1, M) and (M, 1) images
    have the M-point transform's stage sizes and NANDs, and its output bits
    along their row or column."""
    values = rng.uniform(-1, 1, (5, m)) + 1j * rng.uniform(-1, 1, (5, m))
    runs = {}
    for dims in (m, (1, m), (m, 1)):
        eng = CleartextEngine(batch_size=5)
        sig = input_signal(eng, values, F16, dims=dims)
        plan = fft.transform_plan(eng, F16, dims, eng.wire_meta(sig.wires))
        out = fft_1d(sig) if dims == m else fft_2d(sig)
        runs[dims] = ([(s.size, s.nand_count) for s in plan.stages], eng.stats,
                      eng.read_wires(out.wires).tolist())
    assert runs[m] == runs[(1, m)] == runs[(m, 1)]
    stages, stats, _ = runs[m]
    assert [size for size, _ in stages] == [2 ** k for k in range(1, m.bit_length())]
    assert stats.nand_count == sum(n for _, n in stages) and (stats.nand_count > 0) == (m > 1)


# 1D cases at M = 8 (ids "<lanes>-<format>"), and 2D cases whose sides
# differ, so swapped row and column tables cannot pass
_BATCHED_CASES = [
    *(pytest.param(fmt, batch, 8, id=f"{batch}-{name}")
      for batch in (1, 63, 64, 65, 100) for fmt, name in ((F16, "16.8"), (F32, "32.16"))),
    *(pytest.param(F16, batch, dims, id=f"{batch}-16.8-{dims[0]}x{dims[1]}")
      for dims in ((2, 8), (8, 2), (1, 8), (8, 1)) for batch in (1, 63, 64, 65)),
]


@pytest.mark.parametrize("fmt,batch,dims", _BATCHED_CASES)
def test_batched_fft_equals_gate_by_gate(fmt, batch, dims, rng):
    """Stage-batched netlists give the bits, depths and counts of butterfly(),
    with one handle -> wire conversion in and one out."""
    m = dims if isinstance(dims, int) else dims[0] * dims[1]
    values = rng.uniform(-1, 1, (batch, m)) + 1j * rng.uniform(-1, 1, (batch, m))
    results = []
    for transform in _transforms(dims, fmt):
        eng = _ConversionCounting(batch)
        # one point with a public constant word, so operand patterns vary
        pts = list(input_signal(eng, values, fmt).points)
        pts[3] = ComplexFixed(pts[3].re, constant_word(eng, -0.375, fmt))
        eng.conversions.clear()  # count from the handle points on
        out = transform(pts)
        results.append((_wires(out), eng.nand_count, eng.max_depth, eng.conversions))
    assert results[0][3] == ["wires", "handles"] and results[1][3] == []
    assert results[0][:3] == results[1][:3]


def test_batched_fft_on_fhe_makes_the_same_operations(exact_scheme, exact_keys):
    """The batched FHE run makes the gate-by-gate circuit's NANDs and NOTs,
    counted in the word kernels both paths share, and its ciphertexts, in
    1D and 2D."""
    values = [0.5 + 0.25j, -0.75 + 0.5j, 0.125 - 1j, 1.0 + 0.0j]
    calls = {"hom_nand": 0, "hom_not": 0}

    class Counting(type(exact_scheme)):
        def nand_words(self, left, right):
            calls["hom_nand"] += left[..., 0, 0].size
            return super().nand_words(left, right)

        def not_words(self, words):
            calls["hom_not"] += words[..., 0, 0].size
            return super().not_words(words)

    scheme = Counting(exact_scheme.params)
    for dims in (4, (1, 4), (4, 1), (2, 2)):
        seen = []
        for transform in _transforms(dims, F16):
            eng = FheEngine(scheme, keys=exact_keys, rng=np.random.default_rng(4))
            out = transform(list(input_signal(eng, values, F16, dims=dims).points))
            cts = [eng.export_ct(h) for pt in out for w in (pt.re, pt.im) for h in w.bits]
            seen.append((dict(calls), eng.stats, [ct.level for ct in cts],
                         [ct.noise_est for ct in cts], np.array([ct.matrix for ct in cts])))
            calls.update(hom_nand=0, hom_not=0)
        (calls_a, stats_a, levels_a, noise_a, mats_a), (calls_b, stats_b, levels_b, noise_b,
                                                         mats_b) = seen
        assert calls_a == calls_b and calls_a["hom_not"] > 0, dims
        assert stats_a == stats_b, dims
        assert levels_a == levels_b and noise_a == noise_b, dims
        assert np.array_equal(mats_a, mats_b), dims


def test_transforms_return_the_engines_wire_dtype(exact_scheme, exact_keys, tmp_path):
    """The stage driver moves cleartext wire records as raw bytes; the
    signals it returns hold the engine's structured wires, which read,
    give handles and (on FHE) write EFT1 containers as the gate-by-gate
    transform's do, in 1D and 2D."""
    values = [0.5 + 0.25j, -0.75 + 0.5j, 0.125 - 1j, 1.0 + 0.0j]
    engines = {"clear": lambda: CleartextEngine(batch_size=3),
               "fhe": lambda: FheEngine(exact_scheme, keys=exact_keys,
                                        rng=np.random.default_rng(4))}
    for name, make in engines.items():
        for dims in (4, (2, 2)):
            eng, ref = make(), make()
            sig = input_signal(eng, values, F16, dims=dims)
            out = fft_1d(sig) if dims == 4 else fft_2d(sig)
            assert out.wires.dtype == eng.wire_dtype, (name, dims)
            gate_by_gate = _transforms(dims, F16)[1]
            want = signal_of(gate_by_gate(list(input_signal(ref, values, F16, dims=dims).points)),
                             dims)
            assert np.array_equal(read_signal(eng, out), read_signal(ref, want)), (name, dims)
            assert out.points[0].re.engine is eng
            if name == "clear":
                assert _wires(out.points) == _wires(want.points), dims
                continue
            assert [eng.read_back(h) for h in out.bits()] == \
                [ref.read_back(h) for h in want.bits()], dims
            for signal, path in ((out, "batched.eft"), (want, "serial.eft")):
                fileio.write_ciphertext_signal(tmp_path / path, signal)
            assert (tmp_path / "batched.eft").read_bytes() == \
                (tmp_path / "serial.eft").read_bytes(), dims


def test_netlist_cache_stays_small():
    """The netlists of an M = 128 transform at 32.16 hold at most 2 MB."""
    eng = CleartextEngine()
    fft_1d(input_signal(eng, [0.5] * 128, F32))
    held = sum(net.nbytes for key, net in netlist.CACHE.items() if key[1] == F32)
    assert 0 < held <= 2 * 2**20


def test_transform_plans_stay_small(monkeypatch):
    """The plans of the Table 1 transforms (M = 8..128 at 32.16, 100 lanes)
    and of ten 16x16 images hold at most 320 KiB (229,680 bytes measured)."""
    monkeypatch.setattr(fft, "PLANS", {})
    for m in (8, 16, 32, 64, 128):
        eng = CleartextEngine(batch_size=100)
        fft_1d(input_signal(eng, np.full((100, m), 0.5), F32))
    eng = CleartextEngine(batch_size=10)
    fft_2d(input_signal(eng, np.full((10, 256), 0.5), F32, dims=(16, 16)))
    assert len(fft.PLANS) == 6
    assert 0 < sum(plan.nbytes for plan in fft.PLANS.values()) <= 320 * 2**10


def test_butterfly_stages_run_two_word_op_phases(monkeypatch):
    """Each stage compiles its constant products, then its butterfly sums,
    every kind of product rule in one call; the sums netlist is shallower
    than ``sub`` then ``add``, so the Table 1 plans (M = 8..128 at 32.16,
    100 lanes) walk at most 5,218 levels and the 16x16 plan at most 1,352."""
    monkeypatch.setattr(fft, "PLANS", {})
    for m in (8, 16, 32, 64, 128):
        eng = CleartextEngine(batch_size=100)
        fft_1d(input_signal(eng, np.full((100, m), 0.5), F32))
    table1 = list(fft.PLANS.values())
    eng = CleartextEngine(batch_size=10)
    fft_2d(input_signal(eng, np.full((10, 256), 0.5), F32, dims=(16, 16)))
    (image,) = [p for p in fft.PLANS.values() if all(p is not q for q in table1)]
    for plan in table1 + [image]:
        for stage in plan.stages:
            ops = [piece.net.members[0].key[0] for piece in stage.pieces]
            assert ops == sorted(ops, key=["mul_const", "butterfly_sums"].index), stage.size
            assert set(ops) == {"mul_const", "butterfly_sums"}, stage.size

    def level_steps(plans):
        return sum(len(p.net.layout.levels)
                   for plan in plans for s in plan.stages for p in s.pieces)

    assert level_steps(table1) <= 5218 and level_steps([image]) <= 1352
    wires = np.full(2 * F32.total_bits, -1, dtype=np.int8)
    sums = netlist.word_op("butterfly_sums", F32, np.tile(wires, 3))
    chained = [netlist.word_op(op, F32, wires) for op in ("sub", "add")]
    assert len(sums.layout.levels) < sum(len(net.layout.levels) for net in chained)


def test_layouts_cut_the_chunked_level_steps(monkeypatch):
    """On their layouts the Table 1 plans (M = 8..128 at 32.16, 100 lanes)
    run at most 5,536 level steps, counted once per chunk of operand sets,
    and the 16x16 plan (10 lanes) at most 1,352; the largest M = 128 unions
    (57,388 and 58,751 rows of workspace) need at most 25,753 slots, so two
    operand sets share a chunk."""
    steps = []
    evaluate = engine._evaluate

    def counted(net, *args):
        steps.append(len(net.layout.levels))
        return evaluate(net, *args)

    monkeypatch.setattr(engine, "_evaluate", counted)
    monkeypatch.setattr(fft, "PLANS", {})
    for m in (8, 16, 32, 64, 128):
        eng = CleartextEngine(batch_size=100)
        fft_1d(input_signal(eng, np.full((100, m), 0.5), F32))
    assert sum(steps) <= 5536
    pieces = [p for s in fft.PLANS[max(fft.PLANS, key=lambda k: k[4])].stages for p in s.pieces]
    largest = sorted(pieces, key=lambda p: p.net.work_rows)[-2:]
    assert [p.net.work_rows for p in largest] == [57388, 58751]
    for piece in largest:
        assert piece.net.layout.work_slots <= 25753
        assert 2 * piece.net.layout.work_slots * eng.wire_bytes <= eng.CHUNK_BYTES
    steps.clear()
    eng = CleartextEngine(batch_size=10)
    fft_2d(input_signal(eng, np.full((10, 256), 0.5), F32, dims=(16, 16)))
    assert sum(steps) <= 1352


def test_fhe_plan_past_the_depth_budget_raises_before_any_nand(default_scheme, default_keys):
    """On the default preset (depth budget 3) a 2-point transform, 41 NANDs
    deep, is refused before its first NAND kernel call."""
    calls = []

    class Counting(type(default_scheme)):
        def nand_words(self, left, right):
            calls.append(left[..., 0, 0].size)
            return super().nand_words(left, right)

    eng = FheEngine(Counting(default_scheme.params), keys=default_keys,
                    rng=np.random.default_rng(3))
    sig = input_signal(eng, [0.5 + 0.25j, -0.75 + 0.5j], F16)
    for _ in range(2):  # compiling the plan, then finding it
        with pytest.raises(NoiseOverflowError, match="depth budget 3"):
            fft_1d(sig)
    assert calls == [] and (eng.nand_count, eng.max_depth) == (0, 0)


def test_stage_driver_cuts_unions_to_the_engine_bound(monkeypatch):
    """With a smaller workspace bound the stage driver runs more, smaller
    pieces and gets the same wires, counts and depths, in 1D and 2D; a piece
    whose one row exceeds the bound holds a single netlist."""
    values = np.random.default_rng(13).uniform(-1, 1, (9, 32, 2)) @ [1, 1j]

    class Logging(CleartextEngine):
        def evaluate(self, piece, register):
            self.pieces.append(piece.net)
            return super().evaluate(piece, register)

    def transform(dims):
        eng = Logging(batch_size=9)
        eng.pieces = []
        sig = input_signal(eng, values, F32, dims=dims)
        out = fft_1d(sig) if dims == 32 else fft_2d(sig)
        return _wires(out.points), eng.stats, eng.pieces

    for dims in (32, (4, 8)):
        want, stats, pieces = transform(dims)
        monkeypatch.setattr(CleartextEngine, "CHUNK_BYTES", 1 << 12)
        got, got_stats, small = transform(dims)
        monkeypatch.undo()
        assert got == want and got_stats == stats, dims
        assert len(small) > len(pieces), dims
        fits = (1 << 12) // CleartextEngine(batch_size=9).wire_bytes
        assert any(len(net.members) > 1 for net in small), dims
        assert all(len(net.members) == 1 or net.work_rows <= fits for net in small), dims
        assert any(net.work_rows > fits for net in pieces), dims
