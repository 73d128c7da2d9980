"""Transform plans: compiled once per key, replayed bit for bit."""

import numpy as np
import pytest

from circuit_util import gate_by_gate_fft, signal_from_bits, signal_of
from fhefft import fft
from fhefft.arith import FixedFormat, constant_word
from fhefft.engine import CleartextEngine, FheEngine
from fhefft.errors import UsageError
from fhefft.fft import ComplexFixed, TwiddleTable, fft_1d, fft_2d, input_signal, read_signal
from fhefft.fhe import Ciphertext

F16 = FixedFormat(16, 8)
VALUES = [0.5 + 0.25j, -0.75 + 0.5j, 0.125 - 1j, 1.0 + 0.0j]


@pytest.fixture()
def compiles(monkeypatch):
    """An empty plan memo, and the list of the dims of every plan compiled."""
    seen = []
    compile_plan = fft._compile

    def counted(comp, fmt, dims):
        seen.append(dims)
        return compile_plan(comp, fmt, dims)

    monkeypatch.setattr(fft, "PLANS", {})
    monkeypatch.setattr(fft, "_compile", counted)
    return seen


def _transform(signal):
    return fft_1d(signal) if isinstance(signal.dims, int) else fft_2d(signal)


def _clear(engine_class, dims):
    eng = engine_class(batch_size=3)
    out = _transform(input_signal(eng, np.tile(VALUES, (3, 1)), F16, dims=dims))
    return [out.wires[f].tobytes() for f in ("v", "d", "c")], eng.stats


def _fhe(scheme, keys, dims):
    eng = FheEngine(scheme, keys=keys, rng=np.random.default_rng(4))
    out = _transform(input_signal(eng, VALUES, F16, dims=dims))
    cts = [eng.export_ct(h) for h in out.bits()]
    return ([ct.level for ct in cts], [ct.noise_est for ct in cts],
            np.array([ct.words for ct in cts]).tobytes(), out.wires["c"].tobytes()), eng.stats


@pytest.mark.parametrize("dims", [4, (2, 2)])
def test_warm_replay_equals_the_cold_run(dims, compiles, exact_scheme, exact_keys):
    """A replayed plan gives the wires, depths, constants, counts and depth
    of the run that compiled it, and on FHE its ciphertexts, levels and
    noise estimates."""
    for run in (lambda: _clear(CleartextEngine, dims),
                lambda: _fhe(exact_scheme, exact_keys, dims)):
        before = len(compiles)
        cold, warm = run(), run()
        assert len(compiles) == before + 1
        assert cold == warm


def test_an_engine_class_per_call_reuses_the_plan(compiles):
    """Plans are keyed on the engine kind, not its class: a new
    ``CleartextEngine`` subclass per call, as the benchmark makes, finds
    the plan of the first."""
    results = [_clear(type("Recording", (CleartextEngine,), {}), 4) for _ in range(3)]
    assert compiles == [4]
    assert results[0] == results[1] == results[2] == _clear(CleartextEngine, 4)


def test_piece_bound_and_constants_key_their_own_plans(compiles, monkeypatch):
    """A smaller workspace bound, and a signal with a constant word, each
    compile a plan of their own; the same inputs find it again."""
    _clear(CleartextEngine, 4)
    with monkeypatch.context() as patch:
        patch.setattr(CleartextEngine, "CHUNK_BYTES", 1 << 12)
        _clear(CleartextEngine, 4)
        _clear(CleartextEngine, 4)
    assert len(compiles) == 2
    eng = CleartextEngine(batch_size=3)
    pts = list(input_signal(eng, np.tile(VALUES, (3, 1)), F16).points)
    pts[1] = ComplexFixed(pts[1].re, constant_word(eng, -0.375, F16))
    for _ in range(2):
        fft_1d(signal_of(pts, 4))
    _clear(CleartextEngine, 4)
    assert len(compiles) == 3


def test_a_passed_table_does_not_enter_the_plan(compiles):
    """``fft_1d`` refuses a table, here one with an altered twiddle, before
    it compiles: the plan of the key holds its own twiddles, and a
    transform of the key gives the gate-by-gate output of ``TwiddleTable``,
    whose X[1] is the DFT's 0.875 + 0.75j."""

    class Altered(TwiddleTable):
        def twiddle(self, size, k):
            return (0.5, 0.5) if (size, k) == (4, 1) else super().twiddle(size, k)

    values = [0.5, 0.25j, -0.125, 0.75]
    eng = CleartextEngine()
    with pytest.raises(UsageError):
        fft_1d(input_signal(eng, values, F16), Altered(4, F16))
    assert compiles == []
    out = fft_1d(input_signal(eng, values, F16))
    want = gate_by_gate_fft(list(input_signal(eng, values, F16).points), TwiddleTable(4, F16))
    assert compiles == [4]
    assert out == signal_of(want, 4)
    assert read_signal(eng, out)[0][1] == 0.875 + 0.75j


def test_fft_of_fhe_output_matches_gate_by_gate(compiles, exact_scheme, exact_keys):
    """A transform of ciphertexts past level 0, with noise estimates that
    send some NANDs' operands left and others right, makes the words,
    levels, noise estimates and counts of gate-by-gate ``nand``."""
    first = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(6))
    cts = [first.export_ct(h) for h in fft_1d(input_signal(first, VALUES, F16)).bits()]
    noise = np.random.default_rng(7).integers(0, 40, len(cts))
    cts = [Ciphertext(ct.words, ct.level, int(n)) for ct, n in zip(cts, noise)]
    assert min(ct.level for ct in cts) > 0 and len(set(noise.tolist())) > 2
    results = []
    for batched in (True, False):
        eng = FheEngine(exact_scheme, keys=exact_keys)
        signal = signal_from_bits([eng.import_ct(ct) for ct in cts], F16, 4)
        pts = fft_1d(signal).points if batched else \
            gate_by_gate_fft(list(signal.points), TwiddleTable(4, F16))
        out = [eng.export_ct(h) for pt in pts for w in (pt.re, pt.im) for h in w.bits]
        results.append(([ct.level for ct in out], [ct.noise_est for ct in out],
                         np.array([ct.words for ct in out]), eng.stats))
    (levels, noise, words, stats), want = results
    assert compiles == [4, 4]
    assert (levels, noise, stats) == (want[0], want[1], want[3])
    assert np.array_equal(words, want[2])


def test_encrypted_plans_hold_no_slot_per_gate_and_set(compiles, exact_scheme, exact_keys):
    """The plan of an encrypted M = 8 transform at 16.8 on the exact preset
    holds at most 8 KiB (4,848 bytes measured): its pieces hold their
    blocks, and no swap masks, since every noise estimate there is 0."""
    eng = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(3))
    fft_1d(input_signal(eng, np.linspace(-1, 1, 8) + 0.5j, F16))
    (plan,) = fft.PLANS.values()
    assert all(p.swaps is None for stage in plan.stages for p in stage.pieces)
    assert 0 < plan.nbytes <= 8 * 2**10


@pytest.mark.parametrize("nands_per_call", [1, 3])
def test_fhe_batches_keep_the_chunk_bound_with_swaps(nands_per_call, compiles, exact_scheme,
                                                     exact_keys, monkeypatch):
    """With noise estimates that swap some NANDs' operands, and a chunk
    bound of one or three NANDs' decomposed bits, so that some levels split
    one gate's operand sets across calls, a transform makes the words,
    levels, noise estimates and counts of gate-by-gate ``nand``, and no
    ``nand_words`` call takes more operand pairs than the bound."""
    first = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(6))
    cts = [first.export_ct(h) for h in fft_1d(input_signal(first, VALUES, F16)).bits()]
    noise = np.random.default_rng(7).integers(0, 40, len(cts))
    cts = [Ciphertext(ct.words, ct.level, int(n)) for ct, n in zip(cts, noise)]
    pairs = []

    class Counting(type(exact_scheme)):
        def nand_words(self, left, right):
            pairs.append(left[..., 0, 0].size)
            return super().nand_words(left, right)

    scheme = Counting(exact_scheme.params)
    monkeypatch.setattr(FheEngine, "CHUNK_BYTES", nands_per_call * scheme.nand_bytes)
    results = []
    for batched in (True, False):
        eng = FheEngine(scheme, keys=exact_keys)
        signal = signal_from_bits([eng.import_ct(ct) for ct in cts], F16, 4)
        pts = fft_1d(signal).points if batched else \
            gate_by_gate_fft(list(signal.points), TwiddleTable(4, F16))
        out = [eng.export_ct(h) for pt in pts for w in (pt.re, pt.im) for h in w.bits]
        results.append(([ct.level for ct in out], [ct.noise_est for ct in out],
                         np.array([ct.words for ct in out]).tobytes(), eng.stats))
        if batched:
            batches, pairs[:] = list(pairs), []
    assert results[0] == results[1]
    assert max(batches) == nands_per_call and sum(batches) == results[0][3].nand_count
    plan = list(fft.PLANS.values())[-1]  # the first is the transform that made ``cts``
    pieces = [p for stage in plan.stages for p in stage.pieces]
    assert any(p.swaps and any(s.any() for s in p.swaps) for p in pieces)
    assert all(p.swaps is None or any(s.any() for s in p.swaps) for p in pieces)
    assert max(p.count for p in pieces) > nands_per_call


def test_replayed_wires_clear_the_bits_past_the_batch():
    """A replay leaves no lane bit past ``batch_size`` set, constant-1
    wires included, so its output equals the same wires rebuilt from
    handles, byte for byte."""
    eng = CleartextEngine(batch_size=3)
    x = ComplexFixed(input_signal(eng, np.tile(VALUES[:1], (3, 1)), F16).points[0].re,
                     constant_word(eng, -0.375, F16))
    c = ComplexFixed(constant_word(eng, 0.5, F16), constant_word(eng, -0.25, F16))
    out = fft_1d(signal_of([x, c], 2))
    assert (out.wires["c"] == 1).any()
    assert not np.unpackbits(out.wires["v"], axis=-1, bitorder="little")[..., 3:].any()
    assert out == fft.SignalBuffer(eng, F16, 2, eng.wires(out.bits()).reshape(out.wires.shape))
