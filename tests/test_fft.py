import hashlib

import numpy as np
import pytest

from circuit_util import bit_reverse_permute, butterfly
from fhefft import netlist
from fhefft.arith import FixedFormat, constant_word
from fhefft.engine import CleartextEngine, FheEngine
from fhefft.error_model import ErrorParams, butterfly_error, fft_error_bound
from fhefft.errors import UsageError
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
    spec = lane0(eng, SignalBuffer((hi, lo), 2))
    assert spec[0] == pytest.approx(0.5)
    assert spec[1] == pytest.approx(-0.5)


def test_butterfly_axis_rotation():
    # W = -i applied to x_j = i gives t = 1, outputs (1, -1)
    eng = CleartextEngine()
    sig = input_signal(eng, [0.0 + 0.0j, 0.0 + 1.0j], F32)
    hi, lo = butterfly(sig.points[0], sig.points[1], (0.0, -1.0))
    spec = lane0(eng, SignalBuffer((hi, lo), 2))
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
        got = lane0(eng, SignalBuffer((hi, lo), 2))
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
    first; ``from_bits`` rebuilds the same signal from that list."""
    eng = CleartextEngine()
    sig = input_signal(eng, [0.5 + 0.25j, -0.75j, 1.0, 0.125], F16, dims=(2, 2))
    bits = sig.bits()
    assert bits == [h for pt in sig.points for word in (pt.re, pt.im) for h in word.bits]
    assert SignalBuffer.from_bits(bits, F16, (2, 2)) == sig
    for short in (bits[:-1], bits[:-16]):
        with pytest.raises(UsageError):
            SignalBuffer.from_bits(short, F16, (2, 2))


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
    (16, 8, 2, (701, 41)), (16, 8, 4, (2_897, 52)),
    (16, 8, 8, (15_439, 102)), (16, 8, 16, (52_319, 152)),
    (32, 16, 2, (1_421, 73)), (32, 16, 4, (5_873, 84)),
    (32, 16, 8, (37_201, 156)), (32, 16, 16, (132_049, 225)),
])
def test_fft_gate_count_and_depth_golden(bits, frac, m, golden):
    eng = CleartextEngine()
    fft_1d(input_signal(eng, [0.5] * m, FixedFormat(bits, frac)))
    assert (eng.nand_count, eng.max_depth) == golden


def test_fft2d_gate_count_and_depth_golden():
    eng = CleartextEngine()
    fft_2d(input_signal(eng, [0.5] * 16, F16, dims=(4, 4)))
    assert (eng.nand_count, eng.max_depth) == (23_176, 75)


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


def _gate_by_gate_fft(signal, table):
    """fft_1d as a plain composition of ``butterfly``, one at a time."""
    pts = list(bit_reverse_permute(signal).points)
    m = len(pts)
    size = 2
    while size <= m:
        half = size // 2
        for start in range(0, m, size):
            for k in range(half):
                i, j = start + k, start + k + half
                pts[i], pts[j] = butterfly(pts[i], pts[j], table.twiddle(size, k))
        size *= 2
    return SignalBuffer(tuple(pts), m)


def _gate_by_gate_fft2d(image):
    """fft_2d as ``_gate_by_gate_fft`` on each row, then on each column."""
    rows, cols = image.dims
    pts = list(image.points)
    fmt = pts[0].fmt
    for r in range(rows):
        row = SignalBuffer(tuple(pts[r * cols:(r + 1) * cols]), cols)
        pts[r * cols:(r + 1) * cols] = _gate_by_gate_fft(row, TwiddleTable(cols, fmt)).points
    for c in range(cols):
        col = SignalBuffer(tuple(pts[c::cols]), rows)
        pts[c::cols] = _gate_by_gate_fft(col, TwiddleTable(rows, fmt)).points
    return SignalBuffer(tuple(pts), image.dims)


def _transforms(dims, fmt):
    """(the batched transform, its gate-by-gate reference) for a signal shape."""
    if isinstance(dims, int):
        table = TwiddleTable(dims, fmt)
        return (lambda sig: fft_1d(sig, table)), (lambda sig: _gate_by_gate_fft(sig, table))
    return fft_2d, _gate_by_gate_fft2d


def _wires(signal):
    return [(h.value, h.depth, h.const) for pt in signal.points
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
        sig = input_signal(eng, values, fmt)
        # one point with a public constant word, so operand patterns vary
        pts = list(sig.points)
        pts[3] = ComplexFixed(pts[3].re, constant_word(eng, -0.375, fmt))
        out = transform(SignalBuffer(tuple(pts), dims))
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
            calls["hom_nand"] += len(left)
            return super().nand_words(left, right)

        def not_words(self, words):
            calls["hom_not"] += len(words)
            return super().not_words(words)

    scheme = Counting(exact_scheme.params)
    for dims in (4, (1, 4), (4, 1), (2, 2)):
        seen = []
        for transform in _transforms(dims, F16):
            eng = FheEngine(scheme, keys=exact_keys, rng=np.random.default_rng(4))
            out = transform(input_signal(eng, values, F16, dims=dims))
            cts = [eng.export_ct(h) for pt in out.points for w in (pt.re, pt.im)
                   for h in w.bits]
            seen.append((dict(calls), eng.stats, [ct.level for ct in cts],
                         [ct.noise_est for ct in cts], np.array([ct.matrix for ct in cts])))
            calls.update(hom_nand=0, hom_not=0)
        (calls_a, stats_a, levels_a, noise_a, mats_a), (calls_b, stats_b, levels_b, noise_b,
                                                         mats_b) = seen
        assert calls_a == calls_b and calls_a["hom_not"] > 0, dims
        assert stats_a == stats_b, dims
        assert levels_a == levels_b and noise_a == noise_b, dims
        assert np.array_equal(mats_a, mats_b), dims


def test_netlist_cache_stays_small():
    """The netlists of an M = 128 transform at 32.16 hold at most 2 MB."""
    eng = CleartextEngine()
    fft_1d(input_signal(eng, [0.5] * 128, F32))
    held = sum(net.nbytes for key, net in netlist.CACHE.items() if key[1] == F32)
    assert 0 < held <= 2 * 2**20


def test_stage_driver_cuts_unions_to_the_engine_bound(monkeypatch):
    """With a smaller workspace bound the stage driver runs more, smaller
    pieces and gets the same wires, counts and depths, in 1D and 2D; a piece
    whose one row exceeds the bound holds a single netlist."""
    values = np.random.default_rng(13).uniform(-1, 1, (9, 32, 2)) @ [1, 1j]

    class Logging(CleartextEngine):
        def run(self, net, operands):
            self.pieces.append(net)
            return super().run(net, operands)

    def transform(dims):
        eng = Logging(batch_size=9)
        eng.pieces = []
        sig = input_signal(eng, values, F32, dims=dims)
        out = fft_1d(sig) if dims == 32 else fft_2d(sig)
        return _wires(out), eng.stats, eng.pieces

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
