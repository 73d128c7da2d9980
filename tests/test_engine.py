import numpy as np
import pytest

from fhefft.engine import CleartextEngine, FheBit, FheEngine
from fhefft.errors import CapabilityError, NoiseOverflowError, UsageError
from fhefft.fhe import Ciphertext
from fhefft import gates, netlist, plan


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


def test_every_entry_refuses_another_engines_handle_with_one_message(exact_scheme,
                                                                     exact_keys):
    """``nand``, ``read_back``, ``export_ct`` and ``wires`` of both engines
    refuse a handle of another engine with one ``UsageError`` message."""
    messages = set()
    for make in (CleartextEngine, lambda: FheEngine(exact_scheme, keys=exact_keys)):
        eng, other = make(), make()
        mine, foreign = eng.input_bit(1), other.input_bit(0)
        calls = [lambda: eng.nand(mine, foreign), lambda: eng.nand(foreign, mine),
                 lambda: eng.read_back(foreign), lambda: eng.wires([mine, foreign])]
        if isinstance(eng, FheEngine):
            calls.append(lambda: eng.export_ct(foreign))
        for call in calls:
            with pytest.raises(UsageError) as err:
                call()
            messages.add(str(err.value))
    assert len(messages) == 1


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


def test_fhe_run_equals_gate_by_gate_at_noisy_preset(default_scheme, default_keys,
                                                    monkeypatch):
    """At the default preset, where noise estimates differ, a batched run
    swaps operands, grows noise and counts gates as gate-by-gate NANDs do,
    with operand sets of equal levels and different noise and a repeated
    noisy set, also when each chunk of the compile walk holds one distinct
    set: the swap masks gathered chunk by chunk reach every set."""
    rng = np.random.default_rng(8)
    pk = default_keys.public_key
    rows = []
    for r in range(3):
        cts = [default_scheme.encrypt_bit(pk, int(bit), rng) for bit in rng.integers(0, 2, 3)]
        if r:  # a pre-NANDed c: one level deeper and far noisier than a fresh bit
            cts[2] = default_scheme.hom_nand(cts[2], cts[r - 1])
        rows.append(cts)
    # the levels of the last two sets, with less noise: c NANDed with a trivial 1
    rows.append(rows[0][:2] + [default_scheme.hom_nand(
        rows[0][2], default_scheme.trivial_encrypt_bit(1))])
    rows.append(rows[2])  # a repeated noisy operand set
    net = _record(3, _gate_mix)
    serial = FheEngine(default_scheme)
    want = [_gate_mix([serial.import_ct(ct) for ct in cts]) for cts in rows]
    assert serial.stats.nand_count == 50 and serial.stats.max_depth == 3
    noise = [h.ct.noise_est for hs in want for h in hs]
    assert len(set(noise)) > 2
    bits = [[default_scheme.decrypt_bit(default_keys.secret_key, ct) for ct in cts]
            for cts in rows]
    for depth_bytes in (plan._DEPTH_BYTES, 1):  # 1: one operand set per walk chunk
        monkeypatch.setattr(plan, "_DEPTH_BYTES", depth_bytes)
        batched = FheEngine(default_scheme)
        wires = np.stack([batched.wires([batched.import_ct(ct) for ct in cts]) for cts in rows])
        meta = batched.wire_meta(wires)
        out = np.empty((len(rows), len(net.out_const)), meta.dtype)
        _, swaps = plan.walk(net, meta, out, default_scheme.params)
        assert swaps is not None and any(s.any() for s in swaps)
        assert all(np.array_equal(s[:, 4], s[:, 2]) for s in swaps)
        got = [batched.handles(row) for row in batched.run(net, wires)]
        assert batched.stats == serial.stats
        for hs_got, hs_want in zip(got, want):
            for g, w in zip(hs_got, hs_want):
                assert (g.ct.level, g.ct.noise_est) == (w.ct.level, w.ct.noise_est)
                assert np.array_equal(g.ct.words, w.ct.words)
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


def _raised(call):
    """(type, message) of the error ``call`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 -- the error itself is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("preset", ["exact", "default"])
def test_input_wires_equal_the_encrypt_bit_loop(preset, request):
    """One stacked encryption per piece gives the ciphertexts, levels and
    noise estimates of an ``encrypt_bit`` loop on an identically seeded rng,
    across piece boundaries, and leaves the rng where the loop leaves it."""
    scheme = request.getfixturevalue(f"{preset}_scheme")
    keys = request.getfixturevalue(f"{preset}_keys")
    step = FheEngine.CHUNK_BYTES // (8 * scheme.n_ct * scheme.params.m)
    bits = np.random.default_rng(40).integers(0, 2, (2 * step + 3, 1))
    engine = FheEngine(scheme, public_key=keys.public_key, rng=np.random.default_rng(41))
    loop_rng = np.random.default_rng(41)
    wires = engine.input_wires(bits.reshape(-1, 1, 1))
    assert wires.shape == (len(bits), 1) and (wires["c"] == -1).all()
    want = [scheme.encrypt_bit(keys.public_key, int(b), loop_rng) for b in bits[:, 0]]
    for h, ct in zip(engine.handles(wires.ravel()), want):
        assert h.engine is engine and h.const is None
        assert (h.ct.level, h.ct.noise_est) == (ct.level, ct.noise_est)
        assert h.ct.words.dtype == np.int64 and np.array_equal(h.ct.words, ct.words)
    assert engine.rng.integers(0, 1 << 62) == loop_rng.integers(0, 1 << 62)


@pytest.mark.parametrize("preset, shape", [("exact", (51, 3)), ("default", (261, 9))])
def test_fhe_wire_dtype_follows_the_parameters(preset, shape, request):
    """An FHE wire is a record of its ciphertext's N x (n+1) words and the
    plan compiler's meta fields, with no object field."""
    engine = FheEngine(request.getfixturevalue(f"{preset}_scheme"))
    dtype = engine.wire_dtype
    assert dtype["v"].shape == shape and dtype["v"].base == np.int64
    assert set(dtype.names) == {"v", *engine.meta_dtype.names} == {"v", "c", "d", "noise"}
    assert not dtype.hasobject and engine.wire_bytes == dtype["v"].itemsize


def test_fhe_wires_and_handles_round_trip(exact_scheme, exact_keys):
    """``wires`` and ``handles`` are inverses; a constant's record holds its
    trivial ciphertext's words (``bit * G``) at level 0 and noise 0."""
    engine = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(46))
    a, b = engine.handles(engine.input_wires([[1], [0]]))
    handles = [engine.constant(0), a, engine.nand(a, b), engine.constant(1)]
    wires = engine.wires(handles)
    assert wires["c"].tolist() == [0, -1, -1, 1]
    for bit, record in ((0, wires[0]), (1, wires[3])):
        assert np.array_equal(record["v"], exact_scheme.trivial_encrypt_bit(bit).words)
        assert (record["d"], record["noise"]) == (0, 0)
    back = engine.handles(wires)
    assert [h.const for h in back] == [0, None, None, 1]
    for got, want in zip(back[1:3], handles[1:3]):
        assert (got.ct.level, got.ct.noise_est) == (want.ct.level, want.ct.noise_est)
        assert type(got.ct.level) is int and type(got.ct.noise_est) is int
        assert np.array_equal(got.ct.words, want.ct.words)
    assert np.array_equal(engine.wires(back), wires)
    assert engine.read_wires(wires).ravel().tolist() == [0, 1, 1, 1]


@pytest.mark.parametrize("preset", ["exact", "default"])
def test_read_wires_equal_read_back(preset, request):
    """Stacked decryption reads the bits ``read_back`` reads, constants
    included, in pieces of a few ciphertexts and in one."""
    scheme = request.getfixturevalue(f"{preset}_scheme")
    engine = FheEngine(scheme, keys=request.getfixturevalue(f"{preset}_keys"),
                       rng=np.random.default_rng(42))
    fresh = engine.handles(engine.input_wires(np.random.default_rng(43).integers(0, 2, (9, 1))))
    deeper = [engine.nand(a, b) for a, b in zip(fresh, fresh[1:])]
    handles = [engine.constant(1), *fresh, engine.constant(0), *deeper, engine.constant(1)]
    wires = engine.wires(handles).reshape(4, 5)
    want = np.array([engine.read_back(h) for h in handles]).reshape(4, 5, 1)
    assert np.array_equal(engine.read_wires(wires), want)
    engine.CHUNK_BYTES = 3 * scheme.dtype.itemsize * scheme.n_ct  # pieces of 3 ciphertexts
    got = engine.read_wires(wires)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


def test_batched_client_steps_raise_the_per_bit_loops_first_error(default_scheme, default_keys):
    """For the first wire the per-bit loop rejects, the stacked steps raise
    the same error: missing key, wrong engine, non-0/1 bit, level past the
    budget, noise overflow."""
    p = default_scheme.params
    pk = default_keys.public_key
    client = FheEngine(default_scheme, keys=default_keys, rng=np.random.default_rng(44))
    good = client.handles(client.input_wires([[1], [0]]))
    too_deep = client.import_ct(Ciphertext(good[0].ct.words, p.depth_budget + 1, 0))
    garbage = np.random.default_rng(45).integers(0, p.q, good[0].ct.words.shape)
    noisy = client.import_ct(Ciphertext(garbage, 0, 0))
    assert _raised(lambda: client.read_back(noisy))[0] is NoiseOverflowError
    other = FheEngine(default_scheme, keys=default_keys).constant(1)
    server = FheEngine(default_scheme, public_key=pk)
    keyless = FheEngine(default_scheme)
    read_cases = [
        (server, [server.constant(0), server.import_ct(good[0].ct), other], CapabilityError),
        (client, [good[1], client.constant(1), other, too_deep], UsageError),
        (client, [good[0], too_deep, noisy, other], NoiseOverflowError),
        (client, [client.constant(0), noisy, too_deep], NoiseOverflowError),
    ]
    for engine, handles, kind in read_cases:
        want = _raised(lambda: [engine.read_back(h) for h in handles])
        assert want[0] is kind
        if kind is UsageError:  # a wire array holds no engine, so wires() refuses
            assert _raised(lambda: engine.wires(handles))[0] is UsageError
        else:  # another engine's handle, past the first failure, cannot be a wire
            wires = engine.wires([h for h in handles if h.engine is engine])
            assert _raised(lambda: engine.read_wires(wires)) == want
    input_cases = [
        (client, [[1], [0], [2], [3]], UsageError),
        (keyless, [[1], [2]], CapabilityError),
        (keyless, [[5], [0]], UsageError),
    ]
    for engine, bits, kind in input_cases:
        want = _raised(lambda: [engine.input_bit(int(b)) for b in np.ravel(bits)])
        assert want[0] is kind
        assert _raised(lambda: engine.input_wires(bits)) == want
    assert keyless.input_wires(np.zeros((0, 1))).shape == (0,)
