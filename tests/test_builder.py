"""The word ops' gate builder (``arith._Builder``): hashed NANDs, free
complements and no dead low sums, with plans and gate-by-gate runs making
the same gates."""

import cmath

import numpy as np
import pytest
from circuit_util import pack_int_word, unpack_int_word
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fhefft import arith, fft, netlist
from fhefft.arith import FixedFormat, FixedWord
from fhefft.engine import ClearBit, CleartextEngine
from fhefft.errors import UsageError
from fhefft.fft import fft_1d, fft_2d, input_signal

F32 = FixedFormat(32, 16)


def test_table1_and_16x16_netlists_hash_their_nands_and_fold_complements(monkeypatch):
    """Every netlist recorded for Table 1 (M = 8..128) and a 16x16 image at
    32.16: no two NAND rows share an operand pair, keyed with each operand's
    polarity (a literal is 2 * row, plus 1 for a complement), and no NAND
    reads a row and its complement."""
    monkeypatch.setattr(netlist, "CACHE", {})
    monkeypatch.setattr(fft, "PLANS", {})
    for m in (8, 16, 32, 64, 128):
        fft_1d(input_signal(CleartextEngine(), np.full(m, 0.5), F32))
    fft_2d(input_signal(CleartextEngine(), np.full(256, 0.5), F32, dims=(16, 16)))
    recorded = [net for net in netlist.CACHE.values() if net.ops is not None]
    assert {net.key[0] for net in recorded} == {"mul_const", "butterfly_sums"}
    for net in recorded:
        pairs = np.sort(net.ops.astype(np.int64).T, axis=1)
        assert len(np.unique(pairs, axis=0)) == len(pairs), net.key
        assert (pairs[:, 0] // 2 != pairs[:, 1] // 2).all(), net.key
    assert any((net.ops % 2).any() for net in recorded)  # complements are read


def _twiddle(size, k, part):
    w = cmath.exp(-2j * cmath.pi * k / size)
    return w.real if part == 0 else w.imag


@st.composite
def _cases(draw):
    """(op, format, multiplier or sums kind, pattern of constant bits, seed):
    formats whose range holds 1, twiddle components of up to 64 points,
    every ``butterfly_sums`` kind (low-bit counts up to the width), and
    patterns with none to all of their bits constant."""
    total = draw(st.integers(4, 20))
    fmt = FixedFormat(total, draw(st.integers(1, total - 2)))
    op = draw(st.sampled_from(sorted(netlist.OPS)))
    size = 2 ** draw(st.integers(1, 6))
    c = _twiddle(size, draw(st.integers(0, size // 2 - 1)), draw(st.integers(0, 1))) \
        if op == "mul_const" else None
    if op == "butterfly_sums":
        c = draw(st.one_of(st.none(), st.just(-1), st.integers(0, total)))
    n_in = total * netlist.OPS[op]
    share = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pattern = np.where(rng.random(n_in) < share, rng.integers(0, 2, n_in), -1).astype(np.int8)
    return op, fmt, c, pattern, seed


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_word_ops_gate_by_gate_equal_their_netlists(case):
    """``add``, ``sub``, ``mul_const`` and ``butterfly_sums`` (of each kind)
    run gate by gate make the NAND count, output depths and bits of their
    recorded netlist."""
    op, fmt, c, pattern, seed = case
    rng = np.random.default_rng(seed)
    batched, serial = CleartextEngine(batch_size=8), CleartextEngine(batch_size=8)
    handles = [serial.constant(int(p)) if p >= 0 else
               ClearBit(serial, int(rng.integers(0, 256)), int(rng.integers(0, 9)), None)
               for p in pattern]
    width = fmt.total_bits
    words = [FixedWord(tuple(handles[at:at + width]), fmt)
             for at in range(0, len(handles), width)]
    out = getattr(arith, op)(*words, *(() if c is None else (c,)))
    want = [h for word in (out if isinstance(out, tuple) else (out,)) for h in word.bits]
    got = batched.handles(batched.run(netlist.word_op(op, fmt, pattern, c),
                                      serial.wires(handles)[None].copy()).ravel())
    assert batched.nand_count == serial.nand_count
    assert [(h.value, h.depth, h.const) for h in got] == \
        [(h.value, h.depth, h.const) for h in want]


def test_aliased_operands_keep_their_values():
    """add(x, x) is 2x and sub(x, x) is 0 gate by gate, where the builder
    sees one handle for both operands."""
    values = list(range(-128, 128))
    eng = CleartextEngine(batch_size=len(values))
    x = pack_int_word(eng, values, 8)
    assert unpack_int_word(eng, arith.add(x, x)) == [(2 * v + 128) % 256 - 128 for v in values]
    assert unpack_int_word(eng, arith.sub(x, x)) == [0] * len(values)


@pytest.mark.parametrize("op, cost", [("add", lambda f: 7 * f - 5), ("sub", lambda f: 7 * f - 5),
                                      ("butterfly_sums", lambda f: 42 * f - 30)])
def test_sum_netlist_costs(op, cost):
    for fmt in (FixedFormat(8, 4), FixedFormat(16, 8), F32):
        pattern = np.full(fmt.total_bits * netlist.OPS[op], -1, np.int8)
        assert netlist.word_op(op, fmt, pattern).nand_count == cost(fmt.total_bits)


@pytest.mark.parametrize("kind, cost", [
    (-1, lambda f, k: 28 * f - 20),  # W = -j: two adds and two subs
    (0, lambda f, k: 42 * f - 30),  # t = (a + b, b - a) by an add and a sub
    # two OR trees of k - 1 NANDs and two carry-in ripples of 7F
    ("frac", lambda f, k: 42 * f + 2 * k - 22),
])
def test_sums_kind_costs(kind, cost):
    for fmt in (FixedFormat(8, 4), FixedFormat(16, 8), F32):
        k = fmt.frac_bits if kind == "frac" else kind
        pattern = np.full(6 * fmt.total_bits, -1, np.int8)
        assert netlist.word_op("butterfly_sums", fmt, pattern, k).nand_count == \
            cost(fmt.total_bits, k)


@pytest.mark.parametrize("kind", [-2, 33, -1.0, True, False, "1"])
def test_sums_refuse_an_unknown_kind(kind):
    pattern = np.full(6 * F32.total_bits, -1, np.int8)
    with pytest.raises(UsageError, match="kind"):
        netlist.word_op("butterfly_sums", F32, pattern, kind)
