import numpy as np
import pytest

from fhefft import arith
from fhefft.arith import FixedFormat, FixedWord
from fhefft.engine import ClearBit, CleartextEngine, FheEngine
from fhefft.errors import UsageError
from fhefft.netlist import word_op

F8 = FixedFormat(8, 4)


def _operands(eng, pattern, rng):
    """Handles for one operand set: constants where the pattern says so,
    else random lane bits at random depths."""
    return [eng.constant(int(p)) if p >= 0 else
            ClearBit(eng, int.from_bytes(rng.bytes(9), "little") & eng.mask,
                     int(rng.integers(0, 9)), None)
            for p in pattern]


def _gate_by_gate(op, handles, c):
    width = F8.total_bits
    x = FixedWord(tuple(handles[:width]), F8)
    if op == "mul_const":
        return arith.mul_const(x, c).bits
    return getattr(arith, op)(x, FixedWord(tuple(handles[width:]), F8)).bits


@pytest.mark.parametrize("op, c", [("add", None), ("sub", None), ("mul_const", 0.6875),
                                   ("mul_const", -0.9375), ("mul_const", 1.0),
                                   ("mul_const", 0.0)])
def test_run_equals_gate_by_gate(op, c):
    """One netlist run over several operand sets gives the bits, depths,
    constants and gate counts of the word operation run gate by gate."""
    rng = np.random.default_rng(3)
    n_in = F8.total_bits * (1 if op == "mul_const" else 2)
    for constants in (0.0, 0.3, 0.7):
        pattern = np.where(rng.random(n_in) < constants, rng.integers(0, 2, n_in), -1)
        batched, serial = CleartextEngine(batch_size=70), CleartextEngine(batch_size=70)
        sets = [_operands(batched, pattern, rng) for _ in range(5)]
        net = word_op(op, F8, pattern.astype(np.int8), c)
        wires = np.stack([batched.wires(hs) for hs in sets])
        out = batched.run(net, wires)
        for row, hs in zip(out, sets):
            got = batched.handles(row)
            want = _gate_by_gate(op, [ClearBit(serial, h.value, h.depth, h.const) for h in hs], c)
            assert [(h.value, h.depth, h.const) for h in got] == \
                [(h.value, h.depth, h.const) for h in want]
        assert (batched.nand_count, batched.max_depth) == (serial.nand_count, serial.max_depth)
        assert net.nand_count * len(sets) == serial.nand_count


def test_netlists_are_recorded_once():
    pattern = np.full(16, -1, dtype=np.int8)
    assert word_op("add", F8, pattern) is word_op("add", F8, pattern)
    # the multiplier is keyed by its fixed-point integer, not by the float
    assert word_op("mul_const", F8, pattern[:8], 0.5) is \
        word_op("mul_const", F8, pattern[:8], 0.5 + 2**-7)


def test_word_op_rejects_bad_requests():
    with pytest.raises(UsageError):
        word_op("mul", F8, np.full(16, -1, dtype=np.int8))
    with pytest.raises(UsageError):
        word_op("add", F8, np.full(8, -1, dtype=np.int8))


def test_fhe_replay_folds_not_rows(exact_scheme, exact_keys):
    """A folded NOT replays as a ciphertext complement, not as a gate."""
    eng = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(1))
    pattern = np.array([-1] * 8 + [1] * 8, dtype=np.int8)  # x - (-1/16)
    net = word_op("sub", F8, pattern)
    x = arith.input_word(eng, 0.25, F8)
    wires = eng.wires(list(x.bits) + [eng.constant(1)] * 8)
    out = eng.handles(eng.run(net, wires[None])[0])
    assert arith.read_word(eng, FixedWord(tuple(out), F8)) == [0.3125]
    assert eng.nand_count == net.nand_count
