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


def _structure(net):
    """(NAND operand pairs, source row of each folded NOT) of a recorded
    netlist's gate rows."""
    first = net.n_inputs + 1
    a, b = net.ops.astype(np.int64)
    is_not = b == net.one
    nots = dict(zip((first + np.flatnonzero(is_not)).tolist(), a[is_not].tolist()))
    pairs = np.sort(np.stack([a[~is_not], b[~is_not]], axis=1), axis=1)
    return pairs, nots


def test_table1_and_16x16_netlists_hash_their_nands_and_fold_complements(monkeypatch):
    """Every netlist recorded for Table 1 (M = 8..128) and a 16x16 image at
    32.16: no two NAND rows share an operand pair, no NAND reads a row and
    a folded NOT of it, and no folded NOT reads a folded NOT."""
    monkeypatch.setattr(netlist, "CACHE", {})
    monkeypatch.setattr(fft, "PLANS", {})
    for m in (8, 16, 32, 64, 128):
        fft_1d(input_signal(CleartextEngine(), np.full(m, 0.5), F32))
    fft_2d(input_signal(CleartextEngine(), np.full(256, 0.5), F32, dims=(16, 16)))
    recorded = [net for net in netlist.CACHE.values() if net.ops is not None]
    assert {net.key[0] for net in recorded} == {"mul_const", "butterfly_sums"}
    for net in recorded:
        pairs, nots = _structure(net)
        assert len(np.unique(pairs, axis=0)) == len(pairs), net.key
        assert not any(nots.get(x) == y or nots.get(y) == x for x, y in pairs.tolist()), net.key
        assert not any(src in nots for src in nots.values()), net.key


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


@pytest.mark.parametrize("op, cost", [("add", lambda f: 9 * f - 6), ("sub", lambda f: 9 * f - 7),
                                      ("butterfly_sums", lambda f: 54 * f - 39)])
def test_sum_netlist_costs(op, cost):
    for fmt in (FixedFormat(8, 4), FixedFormat(16, 8), F32):
        pattern = np.full(fmt.total_bits * netlist.OPS[op], -1, np.int8)
        assert netlist.word_op(op, fmt, pattern).nand_count == cost(fmt.total_bits)


@pytest.mark.parametrize("kind, cost", [
    (-1, lambda f, k: 36 * f - 26),  # W = -j: two adds and two subs
    (0, lambda f, k: 54 * f - 39),  # t = (a + b, b - a) by an add and a sub
    # two OR trees of k - 1 NANDs and two carry-in ripples of 9F - 1
    ("frac", lambda f, k: 54 * f + 2 * k - 30),
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
