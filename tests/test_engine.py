import numpy as np
import pytest

from fhefft.engine import CleartextEngine, FheBit, FheEngine
from fhefft.errors import CapabilityError, NoiseOverflowError, UsageError
from fhefft import gates, netlist


def clear_engine():
    return CleartextEngine(batch_size=1)


def test_nand_truth_table_clear():
    eng = clear_engine()
    for a in (0, 1):
        for b in (0, 1):
            out = eng.nand(eng.input_bit(a), eng.input_bit(b))
            assert eng.read_back(out) == 1 - (a and b)


def test_nand_count_is_number_of_calls():
    eng = clear_engine()
    a, b = eng.input_bit(1), eng.input_bit(0)
    for k in range(1, 8):
        eng.nand(a, b)
        assert eng.nand_count == k


def test_cross_engine_mixing_rejected():
    e1, e2 = clear_engine(), clear_engine()
    with pytest.raises(UsageError):
        e1.nand(e1.input_bit(0), e2.input_bit(1))


def test_lane_packing_evaluates_lanes_independently():
    eng = CleartextEngine(batch_size=4)
    a = eng.input_bit(0b0011)
    b = eng.input_bit(0b0101)
    out = eng.nand(a, b)
    assert eng.read_back(out) == 0b1110
    assert eng.nand_count == 1


def test_depth_tracking():
    eng = clear_engine()
    x = eng.input_bit(1)
    for _ in range(5):
        x = eng.nand(x, x)
    assert eng.max_depth == 5
    # complement folding does not deepen the chain
    y = eng.nand(x, eng.constant(1))
    assert y.depth == x.depth


def test_fhe_engine_matches_clear_on_nand(exact_scheme, exact_keys, rng):
    fhe = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    for a in (0, 1):
        for b in (0, 1):
            out = fhe.nand(fhe.input_bit(a), fhe.input_bit(b))
            assert fhe.read_back(out) == 1 - (a and b)


def test_fhe_read_back_requires_secret_key(exact_scheme, exact_keys, rng):
    server = FheEngine(exact_scheme, public_key=exact_keys.public_key, rng=rng)
    h = server.nand(server.input_bit(1), server.input_bit(1))
    with pytest.raises(CapabilityError):
        server.read_back(h)


def test_fhe_export_import_round_trip(exact_scheme, exact_keys, rng):
    client = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    server = FheEngine(exact_scheme, public_key=exact_keys.public_key, rng=rng)
    h = client.input_bit(1)
    moved = server.import_ct(client.export_ct(h))
    out = server.nand(moved, moved)
    assert client.read_back(client.import_ct(server.export_ct(out))) == 0
    # constants export as (noiseless) ciphertexts too
    ct = server.export_ct(server.constant(1))
    assert exact_scheme.decrypt_bit(exact_keys.secret_key, ct) == 1


def _depth(h):
    """Depth of a cleartext wire, level of a ciphertext; 0 for a constant."""
    if isinstance(h, FheBit):
        return 0 if h.ct is None else h.ct.level
    return h.depth


@pytest.mark.parametrize("right", ["x", 0, 1])
@pytest.mark.parametrize("left", ["x", 0, 1])
@pytest.mark.parametrize("backend", ["clear", "fhe"])
def test_nand_folds_constant_operands(backend, left, right, exact_scheme, exact_keys, rng):
    """Both engines fold a NAND with a public constant operand the same way:
    NAND(x, 0) = 1 and two constants give a constant, with no gate;
    NAND(x, 1) = NOT x, a wire at x's depth, with no gate; and the constant
    survives a trip through a wire array."""
    eng = clear_engine() if backend == "clear" else \
        FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    x = eng.nand(eng.input_bit(0), eng.input_bit(0))  # a wire holding 1 at depth 1
    before = eng.nand_count
    out = eng.nand(*(x if v == "x" else eng.constant(v) for v in (left, right)))
    pair = (left, right)
    value = 1 - ((1 if left == "x" else left) & (1 if right == "x" else right))
    const = None if "x" in pair and 0 not in pair else value
    assert eng.read_back(out) == value
    assert out.const == const
    assert _depth(out) == (0 if const is not None else 2 if pair == ("x", "x") else 1)
    assert eng.nand_count - before == (1 if pair == ("x", "x") else 0)
    wired = eng.wires([out])
    assert wired["c"][0] == (-1 if const is None else const)
    back = eng.handles(wired)[0]
    assert (back.const, eng.read_back(back), _depth(back)) == (const, value, _depth(out))


def test_backend_equivalence_random_circuits(exact_scheme, exact_keys):
    """Random gate circuits (<= 200 NANDs) agree bit for bit across backends."""
    rng = np.random.default_rng(123)
    ops = [gates.not_, gates.and_, gates.or_, gates.xor_, gates.nor_, gates.xnor_]
    for _ in range(4):
        clear = CleartextEngine()
        fhe = FheEngine(exact_scheme, keys=exact_keys,
                        rng=np.random.default_rng(5))
        bits = [int(b) for b in rng.integers(0, 2, 6)]
        pool_c = [clear.input_bit(b) for b in bits]
        pool_f = [fhe.input_bit(b) for b in bits]
        for _ in range(40):
            op = ops[rng.integers(0, len(ops))]
            i, j = rng.integers(0, len(pool_c), 2)
            if op is gates.not_:
                pool_c.append(op(pool_c[i]))
                pool_f.append(op(pool_f[i]))
            else:
                pool_c.append(op(pool_c[i], pool_c[j]))
                pool_f.append(op(pool_f[i], pool_f[j]))
        assert clear.nand_count <= 200
        assert clear.nand_count == fhe.nand_count
        for hc, hf in zip(pool_c, pool_f):
            assert clear.read_back(hc) == fhe.read_back(hf)


def _record(n_inputs, build):
    """Netlist of ``build(wires)``, recorded on the symbolic engine."""
    rec = netlist._Recorder(n_inputs)
    return rec.compile(build([netlist._Wire(rec, i, None) for i in range(n_inputs)]))


def _gate_mix(w):
    a, b, c = w
    return [gates.xor_(a, b), gates.and_(b, c), gates.or_(a, c), gates.not_(c)]


def test_fhe_run_equals_gate_by_gate_at_noisy_preset(default_scheme, default_keys):
    """At the default preset, where noise estimates differ, a batched run
    swaps operands, grows noise and counts gates as gate-by-gate NANDs do."""
    rng = np.random.default_rng(8)
    pk = default_keys.public_key
    rows = []
    for r in range(3):
        cts = [default_scheme.encrypt_bit(pk, int(bit), rng) for bit in rng.integers(0, 2, 3)]
        if r:  # a pre-NANDed c: one level deeper and far noisier than a fresh bit
            cts[2] = default_scheme.hom_nand(cts[2], cts[r - 1])
        rows.append(cts)
    net = _record(3, _gate_mix)
    batched, serial = FheEngine(default_scheme), FheEngine(default_scheme)
    wires = np.stack([batched.wires([batched.import_ct(ct) for ct in cts]) for cts in rows])
    got = [batched.handles(row) for row in batched.run(net, wires)]
    want = [_gate_mix([serial.import_ct(ct) for ct in cts]) for cts in rows]
    assert batched.stats == serial.stats
    assert serial.stats.nand_count == 30 and serial.stats.max_depth == 3
    noise = [h.ct.noise_est for hs in want for h in hs]
    assert len(set(noise)) > 2
    for hs_got, hs_want in zip(got, want):
        for g, w in zip(hs_got, hs_want):
            assert (g.ct.level, g.ct.noise_est) == (w.ct.level, w.ct.noise_est)
            assert np.array_equal(g.ct.words, w.ct.words)
    bits = [[default_scheme.decrypt_bit(default_keys.secret_key, ct) for ct in cts]
            for cts in rows]
    for (a, b, c), hs in zip(bits, got):
        assert [default_scheme.decrypt_bit(default_keys.secret_key, h.ct) for h in hs] == \
            [a ^ b, b & c, a | c, 1 - c]


def test_fhe_run_past_depth_budget_raises(default_scheme, default_keys):
    """A netlist deeper than the depth budget fails on both paths."""
    rng = np.random.default_rng(9)
    cts = [default_scheme.encrypt_bit(default_keys.public_key, 1, rng) for _ in range(3)]
    build = lambda w: [gates.and_(gates.xor_(w[0], w[1]), w[2])]  # noqa: E731 (depth 5)
    batched, serial = FheEngine(default_scheme), FheEngine(default_scheme)
    wires = batched.wires([batched.import_ct(ct) for ct in cts])[None]
    with pytest.raises(NoiseOverflowError):
        batched.run(_record(3, build), wires)
    with pytest.raises(NoiseOverflowError):
        build([serial.import_ct(ct) for ct in cts])
