import numpy as np
import pytest

from fhefft.engine import CleartextEngine, FheEngine
from fhefft.errors import CapabilityError, UsageError
from fhefft import gates


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


def test_constant_folding_not_counted():
    eng = clear_engine()
    x = eng.input_bit(1)
    one, zero = eng.constant(1), eng.constant(0)
    assert eng.read_back(eng.nand(x, one)) == 0      # NOT x
    assert eng.read_back(eng.nand(x, zero)) == 1
    assert eng.read_back(eng.nand(one, zero)) == 1
    assert eng.nand_count == 0


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


def test_fhe_folding_not_counted(exact_scheme, exact_keys, rng):
    fhe = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    x = fhe.input_bit(1)
    inv = fhe.nand(x, fhe.constant(1))
    assert fhe.nand_count == 0
    assert fhe.read_back(inv) == 0


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

