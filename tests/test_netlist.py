import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fhefft import arith, fft, gates, netlist, plan
from fhefft.arith import FixedFormat, FixedWord
from fhefft.engine import ClearBit, CleartextEngine, FheEngine
from fhefft.errors import UsageError
from fhefft.fft import fft_1d, input_signal
from fhefft.fhe import Ciphertext
from fhefft.netlist import union, word_op

F8 = FixedFormat(8, 4)


def _operands(eng, pattern, rng):
    """Handles for one operand set: constants where the pattern says so,
    else random lane bits at random depths."""
    return [eng.constant(int(p)) if p >= 0 else
            ClearBit(eng, int.from_bytes(rng.bytes(9), "little") & eng.mask,
                     int(rng.integers(0, 9)), None)
            for p in pattern]


def _gate_by_gate(op, handles, c, fmt=F8):
    width = fmt.total_bits
    words = [FixedWord(tuple(handles[at:at + width]), fmt) for at in range(0, len(handles), width)]
    if op == "mul_const":
        return arith.mul_const(*words, c).bits
    if op == "butterfly_sums":  # as the chained sub and add calls
        x_re, x_im, p0, p1, p2, p3 = words
        t_re, t_im = arith.sub(p0, p1), arith.add(p2, p3)
        return [bit for word in (arith.add(x_re, t_re), arith.add(x_im, t_im),
                                 arith.sub(x_re, t_re), arith.sub(x_im, t_im))
                for bit in word.bits]
    return getattr(arith, op)(*words).bits


def _patterns(op, rng):
    """Random patterns of constant bits for ``op``, with none, about a third
    and about two thirds of them constant; for ``butterfly_sums`` also the products of W = 1
    (p1 and p2 constant 0) and of W = -i (p0 and p3 constant 0)."""
    n_in = F8.total_bits * netlist.OPS[op]
    patterns = [np.where(rng.random(n_in) < constants, rng.integers(0, 2, n_in), -1)
                for constants in (0.0, 0.3, 0.7)]
    if op == "butterfly_sums":
        for zero in ((3, 4), (2, 5)):
            words = np.full((6, F8.total_bits), -1)
            words[list(zero)] = 0
            patterns.append(words.ravel())
    return [pattern.astype(np.int8) for pattern in patterns]


@pytest.mark.parametrize("op, c", [("add", None), ("sub", None), ("mul_const", 0.6875),
                                   ("mul_const", -0.9375), ("mul_const", 1.0),
                                   ("mul_const", 0.0), ("butterfly_sums", None)])
def test_run_equals_gate_by_gate(op, c):
    """One netlist run over several operand sets gives the bits, depths,
    constants and gate counts of the word operation run gate by gate."""
    rng = np.random.default_rng(3)
    for pattern in _patterns(op, rng):
        batched, serial = CleartextEngine(batch_size=70), CleartextEngine(batch_size=70)
        sets = [_operands(batched, pattern, rng) for _ in range(5)]
        net = word_op(op, F8, pattern, c)
        wires = np.stack([batched.wires(hs) for hs in sets])
        out = batched.run(net, wires)
        for row, hs in zip(out, sets):
            got = batched.handles(row)
            want = _gate_by_gate(op, [ClearBit(serial, h.value, h.depth, h.const) for h in hs], c)
            assert [(h.value, h.depth, h.const) for h in got] == \
                [(h.value, h.depth, h.const) for h in want]
        assert (batched.nand_count, batched.max_depth) == (serial.nand_count, serial.max_depth)
        assert net.nand_count * len(sets) == serial.nand_count


def test_fhe_butterfly_sums_equal_the_chained_calls(exact_scheme, exact_keys):
    """On the exact preset the sums netlist gives the ciphertext words,
    levels, noise estimates and counts of chained ``sub`` and ``add`` run
    gate by gate, from inputs of mixed levels and noise estimates."""
    rng = np.random.default_rng(5)
    pattern = _patterns("butterfly_sums", rng)[-2]  # W = 1
    fresh = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(2))
    cts = [[Ciphertext(fresh.export_ct(fresh.input_bit(int(bit))).words,
                       int(rng.integers(0, 6)), int(rng.integers(0, 40)))
            for bit in rng.integers(0, 2, len(pattern))] for _ in range(2)]
    net = word_op("butterfly_sums", F8, pattern)
    results = []
    for batched in (True, False):
        eng = FheEngine(exact_scheme)
        rows = [[eng.constant(int(p)) if p >= 0 else eng.import_ct(ct)
                 for p, ct in zip(pattern, row)] for row in cts]
        if batched:
            outs = eng.handles(eng.run(net, np.stack([eng.wires(hs) for hs in rows])).ravel())
        else:
            outs = [h for hs in rows for h in _gate_by_gate("butterfly_sums", hs, None)]
        results.append(([(h.const,) if h.ct is None else
                         (h.ct.level, h.ct.noise_est, h.ct.words.tobytes()) for h in outs],
                        eng.stats))
    assert results[0] == results[1]
    assert len({out[1] for out in results[0][0] if len(out) > 1}) > 2


def test_netlists_are_recorded_once():
    pattern = np.full(16, -1, dtype=np.int8)
    assert word_op("add", F8, pattern) is word_op("add", F8, pattern)
    # the multiplier is keyed by its fixed-point integer, not by the float
    assert word_op("mul_const", F8, pattern[:8], 0.5) is \
        word_op("mul_const", F8, pattern[:8], 0.5 + 2**-7)


def test_row_indices_hold_the_row_count():
    """Level bounds end at the row count, so 2**16 rows need uint32.  Every
    gate is an output, so its layout gives each row a slot of its own."""
    for n_rows in (2**16 - 1, 2**16):
        rec = netlist._Recorder(2)
        x, y = netlist._Wire(rec, 0, None), netlist._Wire(rec, 1, None)
        net = rec.compile([rec.nand(x, y) for _ in range(n_rows - 3)])
        assert int(net.bounds[-1]) == net.n_rows == n_rows
        assert net.ops.dtype == (np.uint16 if n_rows < 2**16 else np.uint32)
        assert net.layout.n_slots == n_rows
        assert sorted(net.layout.outputs.tolist()) == list(range(3, n_rows))


def test_layout_levels_list_their_folded_nots_first(exact_scheme, exact_keys, monkeypatch):
    """Each layout level's first ``nots`` gates, and no later one, read
    ONE's slot as ``b``: its folded NOTs come before its NANDs, in recorded
    netlists and in their union.  An FHE transform walks those levels as
    they are, so replaying its plan leaves the ``nbytes`` of the netlists
    its compile laid out unchanged."""
    monkeypatch.setattr(netlist, "CACHE", {})
    rng = np.random.default_rng(5)
    nets = [word_op(op, F8, pattern, c) for op, c in [("sub", None), ("mul_const", -0.9375),
                                                      ("butterfly_sums", None)]
            for pattern in _patterns(op, rng)]
    nets.append(union(nets))
    for net in nets:
        for _, ops, nots in net.layout.levels:
            n = len(ops) // 2
            assert (ops[n:n + nots] == net.one).all() and (ops[n + nots:] != net.one).all()
        assert sum(len(ops) // 2 - nots for _, ops, nots in net.layout.levels) == net.nand_count
    assert all(any(nots for *_, nots in net.layout.levels) for net in nets[-2:])
    sizes, replay = [], fft.replay

    def measured(engine, plan, *args):
        held = list({id(p.net): p.net for s in plan.stages for p in s.pieces}.values())
        before = [net.nbytes for net in held]
        out = replay(engine, plan, *args)
        sizes.append((before, [net.nbytes for net in held]))
        return out

    monkeypatch.setattr(fft, "replay", measured)
    monkeypatch.setattr(fft, "PLANS", {})
    eng = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(2))
    fft_1d(input_signal(eng, [0.5, -0.25 + 0.5j, 0.75j, -1], FixedFormat(16, 8)))
    ((before, after),) = sizes
    assert before == after and all(before)


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


def _columns(parts):
    """(part, its input columns, its output columns) of a union's parts."""
    ins, outs = np.cumsum([[p.n_inputs, len(p.outputs)] for p in parts], axis=0).T.tolist()
    return [(p, slice(i - p.n_inputs, i), slice(o - len(p.outputs), o))
            for p, i, o in zip(parts, ins, outs)]


def test_union_equals_its_parts_run_alone():
    """A union of netlists with different row counts and constant bits,
    multiplication by 0 and by 1 among them, gives the bits, depths,
    constants and gate counts of each part run alone, in one level sweep."""
    rng = np.random.default_rng(11)
    parts, patterns = [], []
    for op, c, constants in [("add", None, 0.0), ("mul_const", 0.6875, 0.3),
                             ("mul_const", 0.0, 0.0), ("sub", None, 0.7),
                             ("mul_const", 1.0, 0.2), ("mul_const", -0.9375, 0.0)]:
        n_in = F8.total_bits * (1 if op == "mul_const" else 2)
        pattern = np.where(rng.random(n_in) < constants, rng.integers(0, 2, n_in), -1)
        patterns.append(pattern.astype(np.int8))
        parts.append(word_op(op, F8, patterns[-1], c))
    assert len({part.n_rows for part in parts}) == len(parts)
    merged = union(parts)
    assert union(parts) is merged and merged.members == tuple(parts)
    assert netlist.CACHE[("union", F8, tuple(parts))] is merged  # the format at index 1
    assert len(merged.layout.levels) == max(len(part.layout.levels) for part in parts)
    together, alone = CleartextEngine(batch_size=70), CleartextEngine(batch_size=70)
    wires = np.stack([together.wires([h for pattern in patterns
                                      for h in _operands(together, pattern, rng)])
                      for _ in range(5)])
    out = together.run(merged, wires)
    for part, ins, outs in _columns(parts):
        want = alone.run(part, wires[:, ins])
        for field in ("v", "d", "c"):
            assert np.array_equal(out[field][:, outs], want[field])
    assert together.stats == alone.stats and together.nand_count == 5 * merged.nand_count


def test_union_depths_from_distinct_rows_equal_gate_by_gate():
    """Output depths taken once per distinct row of input depths are the
    gate-by-gate depths: for rows that repeat a whole depth vector, rows
    that differ only inside one part's inputs, and no rows at all."""
    rng = np.random.default_rng(21)
    specs = [("add", None, 0.0), ("mul_const", -0.9375, 0.0), ("sub", None, 0.4),
             ("mul_const", 0.6875, 0.3)]
    parts, patterns = [], []
    for op, c, constants in specs:
        n_in = F8.total_bits * (1 if op == "mul_const" else 2)
        pattern = np.where(rng.random(n_in) < constants, rng.integers(0, 2, n_in), -1)
        patterns.append(pattern.astype(np.int8))
        parts.append(word_op(op, F8, patterns[-1], c))
    assert len({part.n_inputs for part in parts}) == 2
    merged = union(parts)
    every = np.concatenate(patterns)
    base = np.where(every < 0, rng.integers(0, 9, len(every)), 0)
    moved = []  # base with new depths on the variable inputs of one part
    for _, ins, _ in _columns(parts):
        depths = base.copy()
        depths[ins] = np.where(every[ins] < 0, (base[ins] + rng.integers(1, 5)) % 9, 0)
        moved.append(depths)
    rows = [moved[2], base, moved[0], base, moved[3], moved[2], moved[1], base, moved[0]]
    together, alone = CleartextEngine(batch_size=70), CleartextEngine(batch_size=70)
    handles = [[together.constant(int(p)) if p >= 0 else
                ClearBit(together, int.from_bytes(rng.bytes(9), "little") & together.mask,
                         int(d), None) for p, d in zip(every, depths)] for depths in rows]
    wires = np.stack([together.wires(hs) for hs in handles])
    out = together.run(merged, wires)
    for (op, c, _), (_, ins, outs) in zip(specs, _columns(parts)):
        for got, hs in zip(out[:, outs], handles):
            want = _gate_by_gate(op, [ClearBit(alone, h.value, h.depth, h.const)
                                      for h in hs[ins]], c)
            assert got["d"].tolist() == [h.depth for h in want]
            assert got["c"].tolist() == [-1 if h.const is None else h.const for h in want]
            assert [h.value for h in together.handles(got)] == [h.value for h in want]
    assert together.stats == alone.stats
    assert together.nand_count == len(rows) * merged.nand_count
    empty = together.run(merged, wires[:0])
    assert empty.shape == (0, len(merged.out_const)) and together.stats == alone.stats


@pytest.mark.parametrize("base", [0, 2**15, 2**31, 2**62 - 2**10])
def test_out_depths_follow_the_nand_rule_at_any_depth(base):
    """``plan.walk`` of recorded netlists and of their union, on input
    depths from ``base`` up, gives the output depths and deepest gate of
    gate-by-gate ``nand`` on Python-int depths."""
    rng = np.random.default_rng(31)
    specs = [("add", None, 0.0), ("sub", None, 0.5), ("mul_const", 0.6875, 0.0),
             ("mul_const", -0.9375, 0.25)]
    patterns = []
    for op, _, constants in specs:
        n_in = F8.total_bits * (1 if op == "mul_const" else 2)
        patterns.append(np.where(rng.random(n_in) < constants, rng.integers(0, 2, n_in),
                                 -1).astype(np.int8))
    parts = [word_op(op, F8, pattern, c) for (op, c, _), pattern in zip(specs, patterns)]
    merged = union(parts)
    cases = [(part, [spec], [pattern]) for part, spec, pattern in zip(parts, specs, patterns)]
    for net, net_specs, net_patterns in cases + [(merged, specs, patterns)]:
        every = np.concatenate(net_patterns)
        rows = [np.where(every < 0, base + rng.integers(0, 40, len(every)), 0)
                for _ in range(3)]
        rows.append(rows[0])  # a repeated row
        words = np.array(rows, dtype=np.int64).view([("d", np.int64)])
        out = np.empty((len(rows), len(net.out_const)), words.dtype)
        top, swaps = plan.walk(net, words, out)
        got = out["d"]
        assert swaps is None
        eng = CleartextEngine(batch_size=1)
        for depths, got_row in zip(rows, got.tolist()):
            handles = [eng.constant(int(p)) if p >= 0 else ClearBit(eng, 1, int(d), None)
                       for p, d in zip(every, depths.tolist())]
            want, at = [], 0
            for (op, c, _), pattern in zip(net_specs, net_patterns):
                want += [h.depth for h in _gate_by_gate(op, handles[at:at + len(pattern)], c)]
                at += len(pattern)
            assert got_row == want
        assert top == eng.max_depth > base


def test_fhe_union_equals_its_parts_at_noisy_preset(default_scheme, default_keys):
    """At the default preset a union gives the ciphertext words, levels and
    noise estimates, and the counts, of each part run alone, with inputs of
    different levels and noise."""
    rng = np.random.default_rng(12)
    rec = netlist._Recorder(3)
    w = [netlist._Wire(rec, i, None) for i in range(3)]
    mix = rec.compile([gates.xor_(w[0], w[1]), gates.and_(w[1], w[2]), gates.not_(w[2])])
    rec = netlist._Recorder(2)
    w = [netlist._Wire(rec, i, None) for i in range(2)]
    single = rec.compile([rec.nand(w[0], w[1]), rec.nand(w[1], w[0])])
    every = np.full(8, -1, dtype=np.int8)
    parts = [mix, word_op("mul_const", F8, every, 1.0), single, word_op("mul_const", F8, every, 0.0)]
    merged = union(parts)
    together, alone = FheEngine(default_scheme), FheEngine(default_scheme)
    pk = default_keys.public_key
    rows = []
    for r in range(3):
        cts = [default_scheme.encrypt_bit(pk, int(bit), rng)
               for bit in rng.integers(0, 2, merged.n_inputs)]
        # single's first input a level deeper and far noisier than a fresh bit
        at = mix.n_inputs + 8
        cts[at] = default_scheme.hom_nand(cts[at], cts[r])
        rows.append([together.import_ct(ct) for ct in cts])
    wires = np.stack([together.wires(hs) for hs in rows])
    out = together.run(merged, wires)
    noise = set()
    for part, ins, outs in _columns(parts):
        want = alone.run(part, wires[:, ins])
        assert np.array_equal(out["c"][:, outs], want["c"])
        for got_h, want_h, const in zip(together.handles(out[:, outs].ravel()),
                                        alone.handles(want.ravel()), want["c"].ravel()):
            if const < 0:
                assert (got_h.ct.level, got_h.ct.noise_est) == \
                    (want_h.ct.level, want_h.ct.noise_est)
                assert np.array_equal(got_h.ct.words, want_h.ct.words)
                noise.add(got_h.ct.noise_est)
    assert together.stats == alone.stats and together.stats.max_depth == 3
    assert len(noise) > 2


@st.composite
def _laid_out(draw):
    """One to four recorded netlists at a format of 4 to 8 bits, each on a
    random pattern of constant bits: (format, [(op, c, pattern)], and the
    netlist that evaluates them, their union when there are several)."""
    total = draw(st.integers(4, 8))
    fmt = FixedFormat(total, draw(st.integers(1, total - 1)))
    half = 1 << (total - 1)
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(sorted(netlist.OPS)))
        c = draw(st.integers(-half, half - 1)) / fmt.scale if op == "mul_const" else None
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n_in = total * netlist.OPS[op]
        constants = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        specs.append((op, c, np.where(rng.random(n_in) < constants, rng.integers(0, 2, n_in),
                                      -1).astype(np.int8)))
    return fmt, specs, union(word_op(op, fmt, pattern, c) for op, c, pattern in specs)


def _check_slots(net):
    """Replay ``net``'s layout on expression numbers, against its parts' rows:
    each level computes its rows' expressions, writes no slot it reads and
    overwrites no value a later level reads; the output slots hold the
    outputs at the end."""
    numbers = {}

    def number(expr):
        return numbers.setdefault(expr, len(numbers))

    want_levels, want_out, last_read, at = {}, [], {}, 0
    for part in net.members:  # the rows, numbered as the union's inputs and ONE
        rows = [number(("in", at + r)) for r in range(part.n_inputs)] + [number("one")]
        bounds = part.bounds.tolist()
        for k, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:]), 1):
            ops = part.ops[:, lo - part.one - 1:hi - part.one - 1].reshape(-1)
            for a, b in zip(ops[:hi - lo].tolist(), ops[hi - lo:].tolist()):
                rows.append(number(("nand", rows[a], rows[b])))
                want_levels.setdefault(k, []).append(rows[-1])
                for operand in (rows[a], rows[b]):
                    last_read[operand] = max(last_read.get(operand, 0), k)
        want_out += [rows[r] if c < 0 else None
                     for r, c in zip(part.outputs.tolist(), part.out_const.tolist())]
        at += part.n_inputs
    for expr in want_out + [number("one")]:
        last_read[expr] = len(net.layout.levels) + 1  # kept to the end
    held = [number(("in", i)) for i in range(net.n_inputs)] + [number("one")]
    held += [None] * (net.layout.n_slots - len(held))
    for k, (start, ops, _) in enumerate(net.layout.levels, 1):
        n = len(ops) // 2
        reads, writes = set(ops.tolist()), set(range(start, start + n))
        assert not reads & writes, k
        got = [number(("nand", held[a], held[b]))
               for a, b in zip(ops[:n].tolist(), ops[n:].tolist())]
        assert sorted(got) == sorted(want_levels[k]), k
        for s in writes:
            lost = held[s]
            assert lost is None or lost in held[:s] + held[s + 1:] or \
                last_read.get(lost, 0) < k, (k, s)
        held[start:start + n] = got
    assert [held[s] if c < 0 else None for s, c in
            zip(net.layout.outputs.tolist(), net.out_const.tolist())] == want_out
    assert len(net.layout.levels) == len(want_levels)


def _gate_by_gate_parts(fmt, specs, handles):
    """Outputs of the netlists of ``specs`` run gate by gate on one operand
    set of ``handles`` (their inputs, part after part)."""
    out, at = [], 0
    for op, c, pattern in specs:
        out += _gate_by_gate(op, handles[at:at + len(pattern)], c, fmt)
        at += len(pattern)
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_laid_out(), st.integers(0, 2**32 - 1))
def test_layouts_reuse_slots_and_evaluate_gate_by_gate(case, seed):
    """A netlist's layout holds every value until its last reader and every
    output to the end, and cleartext evaluation and ``plan.walk`` on it
    give the lane bits, depths, constants, NAND count and deepest NAND of
    gate-by-gate ``nand``."""
    fmt, specs, net = case
    _check_slots(net)
    assert net.layout.n_slots <= net.n_inputs + 1 + sum(p.ops.shape[1] for p in net.members)
    rng = np.random.default_rng(seed)
    every = np.concatenate([pattern for _, _, pattern in specs])
    batched, serial = CleartextEngine(batch_size=70), CleartextEngine(batch_size=70)
    sets = [_operands(batched, every, rng) for _ in range(3)]
    sets.append(sets[0])  # a repeated row of input depths
    out = batched.run(net, np.stack([batched.wires(hs) for hs in sets]))
    for row, hs in zip(out, sets):
        want = _gate_by_gate_parts(fmt, specs, [ClearBit(serial, h.value, h.depth, h.const)
                                                for h in hs])
        assert [(h.value, h.depth, h.const) for h in batched.handles(row)] == \
            [(h.value, h.depth, h.const) for h in want]
    assert batched.stats == serial.stats


def _interleaved_layout(parts):
    """``netlist._layout`` of the union of ``parts`` from rows built here:
    the inputs part after part, one ONE, then for each level every part's
    gates of that level, part after part, renumbered."""
    n_in = sum(p.n_inputs for p in parts)
    rows, at = [], 0  # per part, the union row of each of its rows
    for p in parts:
        rows.append(list(range(at, at + p.n_inputs)) + [n_in])
        at += p.n_inputs
    a, b, bounds = [], [], [0, n_in + 1]
    for k in range(1, max(len(p.bounds) for p in parts) - 1):
        for p, row in zip(parts, rows):
            if k < len(p.bounds) - 1:
                lo, hi = (int(r) - p.one - 1 for r in p.bounds[k:k + 2])
                for ga, gb in p.ops[:, lo:hi].T.tolist():
                    a.append(row[ga])
                    b.append(row[gb])
                    row.append(n_in + len(a))
        bounds.append(n_in + 1 + len(a))
    outputs = [row[r] if c < 0 else 0 for p, row in zip(parts, rows)
               for r, c in zip(p.outputs.tolist(), p.out_const.tolist())]
    return netlist._layout(n_in, np.array([a, b], np.intp).reshape(2, -1), np.array(bounds),
                           np.array(outputs, np.intp),
                           np.concatenate([p.out_const for p in parts]))


def _check_interleave(parts):
    """``union(parts)`` is laid out as ``_interleaved_layout``, array by array."""
    got, want = union(parts).layout, _interleaved_layout(parts)
    for field in dataclasses.fields(netlist.Layout):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(g, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w), field.name
        elif field.name == "levels":
            assert len(g) == len(w), field.name
            for k, ((gs, go, gn), (ws, wo, wn)) in enumerate(zip(g, w)):
                assert gs == ws and gn == wn and go.dtype == wo.dtype, (field.name, k)
                assert np.array_equal(go, wo), (field.name, k)
        else:
            assert g == w, field.name


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_laid_out())
def test_union_interleaves_its_parts_level_by_level(case):
    """A union's level k holds each part's level-k gates, part after part,
    each part's in its own order: its layout is that of those rows."""
    _check_interleave(case[2].members)


def _recorded(rng, n_rows):
    """A netlist of ``n_rows`` rows recorded from NANDs and folded NOTs of
    random recent wires, with some of them and a constant as outputs."""
    rec = netlist._Recorder(6)
    wires = [netlist._Wire(rec, i, None) for i in range(6)]
    while len(rec.level) < n_rows:
        x, y = (wires[-1 - int(rng.integers(min(len(wires), 200)))] for _ in range(2))
        wires.append(rec.free_not(x) if rng.random() < 0.2 else rec.nand(x, y))
    outputs = [wires[i] for i in rng.choice(len(wires), 50, replace=False)]
    return rec.compile(outputs + [rec.constant(1)])


def test_union_past_2_16_rows_interleaves_its_parts(monkeypatch):
    """Parts below 2**16 rows whose union passes it: the union's rows need
    uint32, and it still interleaves its parts level by level."""
    monkeypatch.setattr(netlist, "CACHE", {})
    rng = np.random.default_rng(41)
    parts = [_recorded(rng, n_rows) for n_rows in (36_000, 30_000, 900)]
    assert all(p.ops.dtype == np.uint16 for p in parts)
    assert sum(p.n_rows for p in parts) - len(parts) + 1 > 2**16
    _check_interleave(parts)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_laid_out(), seed=st.integers(0, 2**32 - 1))
def test_fhe_layouts_evaluate_gate_by_gate(exact_scheme, exact_keys, case, seed):
    """On the exact preset a netlist's FHE levels give the ciphertext words,
    levels, noise estimates and counts of gate-by-gate ``nand``, from inputs
    of mixed levels and noise estimates."""
    fmt, specs, net = case
    rng = np.random.default_rng(seed)
    every = np.concatenate([pattern for _, _, pattern in specs])
    fresh = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(seed))
    cts = [[Ciphertext(fresh.export_ct(fresh.input_bit(int(bit))).words,
                       int(rng.integers(0, 6)), int(rng.integers(0, 40)))
            for bit in rng.integers(0, 2, len(every))] for _ in range(2)]
    results = []
    for batched in (True, False):
        eng = FheEngine(exact_scheme)
        rows = [[eng.constant(int(p)) if p >= 0 else eng.import_ct(ct)
                 for p, ct in zip(every, row)] for row in cts]
        if batched:
            outs = eng.handles(eng.run(net, np.stack([eng.wires(hs) for hs in rows])).ravel())
        else:
            outs = [h for hs in rows for h in _gate_by_gate_parts(fmt, specs, hs)]
        results.append(([(h.const,) if h.ct is None else
                         (h.ct.level, h.ct.noise_est, h.ct.words.tobytes()) for h in outs],
                        eng.stats))
    assert results[0] == results[1]
