"""Bit engines: the backend abstraction every circuit is built against.

A circuit is a composition of ``engine.nand`` calls over opaque
``BitHandle`` values.  Two interchangeable engines are provided:

* ``CleartextEngine`` evaluates bits exactly in plaintext.  A handle packs
  ``batch_size`` independent evaluation lanes into one python integer, so
  one pass over a circuit evaluates it for many independent inputs (e.g.
  all trials of an experiment) while counting each gate once.
* ``FheEngine`` evaluates bits as ciphertexts of a ``GswScheme``.

Besides gate-by-gate ``nand``, each engine evaluates a recorded
``netlist.Netlist`` over many operand sets at once with ``run``.  Operands
and results are the engine's wire arrays (``wires`` turns handles into one,
``handles`` turns it back): structured arrays whose ``c`` field holds each
wire's public constant (-1 for a variable wire).  ``input_wires`` makes
variable wires straight from an array of lane bits and ``read_wires``
reads lane bits back, so a signal is encoded and decoded without a handle
per bit: the cleartext engine packs and unpacks the lane bytes in numpy,
the FHE engine makes one ``encrypt_bit`` per bit in C order and one
``read_back`` per wire.  On the cleartext engine
the other fields are packed lane bytes and depths, evaluated level by
level as numpy bit-planes.  On the FHE engine the other field is the
handle; ``run`` also goes level by level, over the ciphertexts' gadget
words: each level's NANDs for every operand set are one batched
``GswScheme.nand_words`` product, and only the netlist's inputs and
outputs are handles.  The ciphertexts, operation counts, levels and noise
estimates are those of the gate-by-gate circuit.  A ``netlist.union`` runs
like any netlist; the cleartext engine takes output depths from each of
its parts' paths.  ``wire_bytes`` (a wire's packed lanes, or a
ciphertext's words) and ``CHUNK_BYTES`` tell a caller how large a netlist
fits one evaluation workspace.

A handle's ``const`` is ``None`` for a variable wire, else its public
bit, which a wire array's ``c`` holds as -1, 0 or 1.  A NAND with a
constant operand is folded by ``fold``, the one rule every engine (and
``netlist``'s recorder) applies: NAND(x, 0) = 1, NAND(x, 1) = NOT x
without a gate (each engine's ``free_not``: a bit flip in cleartext, the
linear ciphertext complement under FHE), and two constants give a
constant.  Folded gates do not increment the NAND counter.  Because
constants are public circuit structure (e.g. twiddle bits), this mirrors
the cost treatment of constant multiplication, at the price of leaking
which result bits are forced; see README.

Decryption below the noise threshold is exact, so any circuit evaluated
on both engines yields identical bits; the cleartext engine is the
bit-exact reference, not a floating-point emulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, NoiseOverflowError, UsageError
from .fhe import Ciphertext, GswScheme, KeyPair


@dataclass(frozen=True)
class GateStats:
    """Snapshot of an engine's gate accounting."""

    nand_count: int
    max_depth: int


def fold(engine, a, b):
    """NAND of two handles of which at least one is a public constant."""
    if a.const is not None and b.const is not None:
        return engine.constant(1 - (a.const & b.const))
    if b.const is not None:
        a, b = b, a
    # a is the constant: NAND(x, 0) = 1, NAND(x, 1) = NOT x (gate-free)
    return engine.constant(1) if a.const == 0 else engine.free_not(b)


class ClearBit:
    """One circuit wire on the cleartext engine (``batch_size`` lanes)."""

    __slots__ = ("engine", "value", "depth", "const")

    def __init__(self, engine, value, depth, const):
        self.engine = engine
        self.value = value
        self.depth = depth
        self.const = const


class FheBit:
    """One circuit wire on the FHE engine: a ciphertext, or a public constant."""

    __slots__ = ("engine", "ct", "const")

    def __init__(self, engine, ct, const):
        self.engine = engine
        self.ct = ct
        self.const = const


class CleartextEngine:
    """Exact plaintext bit engine with lane packing and gate counting."""

    CHUNK_BYTES = 1 << 20  # bound on the working arrays of one ``run`` evaluation

    def __init__(self, batch_size: int = 1):
        if batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.mask = (1 << batch_size) - 1
        self.nand_count = 0
        self.max_depth = 0
        self.wire_bytes = -(-batch_size // 8)  # lane bits of a wire, packed LSB first
        self.wire_dtype = np.dtype([("v", np.uint8, (self.wire_bytes,)), ("d", np.int32),
                                    ("c", np.int8)])

    @property
    def stats(self) -> GateStats:
        return GateStats(self.nand_count, self.max_depth)

    def constant(self, bit: int) -> ClearBit:
        if bit not in (0, 1):
            raise UsageError(f"constant must be 0 or 1, got {bit!r}")
        return ClearBit(self, self.mask if bit else 0, 0, bit)

    def input_bit(self, lanes: int) -> ClearBit:
        """New variable wire; ``lanes`` packs one bit per lane (0/1 if batch 1)."""
        if not 0 <= lanes <= self.mask:
            raise UsageError(f"lane value {lanes:#x} out of range for "
                             f"batch_size={self.batch_size}")
        return ClearBit(self, lanes, 0, None)

    def nand(self, a: ClearBit, b: ClearBit) -> ClearBit:
        if a.engine is not self or b.engine is not self:
            raise UsageError("cannot mix handles from different engines")
        if a.const is not None or b.const is not None:
            return fold(self, a, b)
        self.nand_count += 1
        depth = (a.depth if a.depth >= b.depth else b.depth) + 1
        if depth > self.max_depth:
            self.max_depth = depth
        return ClearBit(self, self.mask ^ (a.value & b.value), depth, None)

    def free_not(self, h: ClearBit) -> ClearBit:
        return ClearBit(self, self.mask ^ h.value, h.depth, None)

    def read_back(self, h: ClearBit) -> int:
        """Packed lane values of a wire (an int in [0, 2**batch_size))."""
        if h.engine is not self:
            raise UsageError("handle belongs to a different engine")
        return h.value

    def input_wires(self, lane_bits) -> np.ndarray:
        """New variable wires of a (..., batch_size) array of lane bits (0/1),
        each wire's lanes packed LSB first; the result has shape ``...``."""
        lane_bits = np.asarray(lane_bits, dtype=np.uint8)
        if lane_bits.shape[-1:] != (self.batch_size,):
            raise UsageError(f"lane bits of shape {lane_bits.shape} for "
                             f"batch_size={self.batch_size}")
        out = np.empty(lane_bits.shape[:-1], self.wire_dtype)
        out["v"] = np.packbits(lane_bits, axis=-1, bitorder="little")
        out["d"] = 0
        out["c"] = -1
        return out

    def read_wires(self, wires: np.ndarray) -> np.ndarray:
        """Lane bits of a wire array, shape ``wires.shape + (batch_size,)``
        (the inverse of ``input_wires``; a constant wire reads its ``c``)."""
        bits = np.unpackbits(wires["v"], axis=-1, count=self.batch_size, bitorder="little")
        for bit in (0, 1):
            bits[wires["c"] == bit] = bit
        return bits

    def wires(self, handles) -> np.ndarray:
        """Wire array of handles."""
        _check_owner(self, handles)
        n, size = len(handles), self.wire_bytes
        out = np.empty(n, self.wire_dtype)
        out["v"] = np.frombuffer(b"".join(h.value.to_bytes(size, "little") for h in handles),
                                 dtype=np.uint8).reshape(n, size)
        out["d"] = np.fromiter((h.depth for h in handles), np.int32, n)
        out["c"] = np.fromiter((-1 if h.const is None else h.const for h in handles), np.int8, n)
        return out

    def handles(self, wires: np.ndarray) -> list[ClearBit]:
        """Handles of a wire array (inverse of ``wires``)."""
        lanes = np.ascontiguousarray(wires["v"])
        mask = self.mask
        return [ClearBit(self, int.from_bytes(v.tobytes(), "little") & mask, d,
                         None if c < 0 else c)
                for v, d, c in zip(lanes, wires["d"].tolist(), wires["c"].tolist())]

    def run(self, net, operands: np.ndarray) -> np.ndarray:
        """Evaluate a netlist on each row of a (count, n_inputs) wire array.

        Counts ``net.nand_count`` gates per row and tracks depth exactly as
        gate-by-gate evaluation would, from each part's paths for a union.
        """
        count = len(operands)
        self.nand_count += net.nand_count * count
        out = np.empty((count, len(net.outputs)), self.wire_dtype)
        out["c"] = net.out_const
        # bounded working arrays: the lane bytes of the workspace rows, and
        # the (inputs x outputs) path sums the output depths are taken from
        rows = net.work_rows
        step = max(1, self.CHUNK_BYTES // (self.wire_bytes * rows))
        work = np.empty(rows * self.wire_bytes * min(step, count), dtype=np.uint8)
        for lo in range(0, count, step):
            out["v"][lo:lo + step] = _evaluate(net, operands["v"][lo:lo + step], work)
        at_input = at_output = 0
        for part in net.members:
            depths = operands["d"][:, at_input:at_input + part.n_inputs]
            outs = out["d"][:, at_output:at_output + len(part.outputs)]
            at_input, at_output = at_input + part.n_inputs, at_output + len(part.outputs)
            if count:
                self.max_depth = max(self.max_depth, int((depths + part.gate_path).max()))
            step = max(1, self.CHUNK_BYTES // (16 * part.out_path.size))
            for lo in range(0, count, step):
                sums = depths[lo:lo + step, :, None] + part.out_path
                outs[lo:lo + step] = np.maximum(sums.max(axis=1), 0)
        return out


class FheEngine:
    """Bit engine evaluating gates homomorphically.

    Holds the public key (enough to encrypt inputs and run circuits); give
    it the full ``KeyPair`` to enable ``read_back``.  ``nand`` evaluates
    one gate; ``run`` evaluates a netlist level by level for every operand
    set at once, on the ciphertexts' gadget words.
    """

    batch_size = 1
    # bound on the decomposed float64 bits of one kernel call, and on the
    # words of one operand set of the netlists ``fft`` merges into one ``run``
    CHUNK_BYTES = 1 << 20

    def __init__(self, scheme: GswScheme, keys: KeyPair | None = None,
                 public_key=None, rng=None):
        # with no key material at all the engine can still evaluate circuits
        # over imported ciphertexts and fold constants (the server role)
        self.scheme = scheme
        self.public_key = keys.public_key if keys is not None else public_key
        self.secret_key = keys.secret_key if keys is not None else None
        self.rng = rng if rng is not None else np.random.default_rng()
        self.nand_count = 0
        self.max_depth = 0
        self.wire_bytes = 8 * scheme.n_ct * (scheme.params.n + 1)  # a ciphertext's words

    @property
    def stats(self) -> GateStats:
        return GateStats(self.nand_count, self.max_depth)

    def constant(self, bit: int) -> FheBit:
        if bit not in (0, 1):
            raise UsageError(f"constant must be 0 or 1, got {bit!r}")
        return FheBit(self, None, bit)

    def input_bit(self, bit: int) -> FheBit:
        if bit not in (0, 1):
            raise UsageError(f"input bit must be 0 or 1, got {bit!r}")
        if self.public_key is None:
            raise CapabilityError("encrypting inputs needs the public key")
        ct = self.scheme.encrypt_bit(self.public_key, bit, self.rng)
        return FheBit(self, ct, None)

    def nand(self, a: FheBit, b: FheBit) -> FheBit:
        if a.engine is not self or b.engine is not self:
            raise UsageError("cannot mix handles from different engines")
        if a.const is not None or b.const is not None:
            return fold(self, a, b)
        out = self.scheme.hom_nand(a.ct, b.ct)
        self.nand_count += 1
        if out.level > self.max_depth:
            self.max_depth = out.level
        return FheBit(self, out, None)

    def free_not(self, h: FheBit) -> FheBit:
        return FheBit(self, self.scheme.hom_not(h.ct), None)

    def read_back(self, h: FheBit) -> int:
        if h.engine is not self:
            raise UsageError("handle belongs to a different engine")
        if h.const is not None:
            return h.const
        if self.secret_key is None:
            raise CapabilityError("read_back needs the secret key")
        return self.scheme.decrypt_bit(self.secret_key, h.ct)

    def export_ct(self, h: FheBit) -> Ciphertext:
        """Ciphertext of a wire (constants become trivial ciphertexts)."""
        if h.engine is not self:
            raise UsageError("handle belongs to a different engine")
        if h.const is not None:
            return self.scheme.trivial_encrypt_bit(h.const)
        return h.ct

    def import_ct(self, ct: Ciphertext) -> FheBit:
        return FheBit(self, ct, None)

    def input_wires(self, lane_bits) -> np.ndarray:
        """Fresh encryptions of a (..., 1) array of bits, one ``encrypt_bit``
        per bit in C order; the result has shape ``...``."""
        lane_bits = np.asarray(lane_bits)
        if lane_bits.shape[-1:] != (1,):
            raise UsageError(f"lane bits of shape {lane_bits.shape} for batch_size=1")
        out = np.empty(lane_bits[..., 0].size, _FHE_WIRE)
        out["h"] = [self.input_bit(int(b)) for b in lane_bits.reshape(-1)]
        out["c"] = -1
        return out.reshape(lane_bits.shape[:-1])

    def read_wires(self, wires: np.ndarray) -> np.ndarray:
        """Decrypted bits of a wire array, shape ``wires.shape + (1,)``: one
        ``read_back`` per wire."""
        bits = [self.read_back(h) for h in wires["h"].reshape(-1)]
        return np.array(bits, dtype=np.uint8).reshape(*wires.shape, 1)

    def wires(self, handles) -> np.ndarray:
        """Wire array of handles."""
        _check_owner(self, handles)
        out = np.empty(len(handles), _FHE_WIRE)
        out["h"] = handles
        out["c"] = [-1 if h.const is None else h.const for h in handles]
        return out

    def handles(self, wires: np.ndarray) -> list[FheBit]:
        return list(wires["h"])

    def run(self, net, operands: np.ndarray) -> np.ndarray:
        """Evaluate a netlist on each row of a (count, n_inputs) wire array.

        Level by level, for all rows at once: the words of every live wire
        sit in one slab, each level's NANDs are one gather and one
        ``nand_words`` call per ``CHUNK_BYTES`` of decomposed bits, and its
        folded NOTs one ``not_words`` call.  Operand order, levels, noise
        estimates, counts and ciphertexts are those of gate-by-gate
        ``nand``; a level past the depth budget raises before it runs.
        """
        plan = _PLANS.get(net)
        if plan is None:
            plan = _PLANS[net] = _slot_plan(net)
        n_slots, inputs, input_slots, levels, output_slots = plan
        count = len(operands)
        out = np.empty((count, len(net.outputs)), _FHE_WIRE)
        out["c"] = net.out_const
        if not count:
            return out
        if (operands["c"][:, inputs] >= 0).any():
            raise UsageError("a constant operand where the netlist reads a wire")
        scheme = self.scheme
        n_ct, q, budget = scheme.n_ct, scheme.params.q, scheme.params.depth_budget
        # the words, level and noise estimate of the wire in each slot, per row
        shape = (n_ct, scheme.params.n + 1)  # the words of one ciphertext
        words = np.empty((n_slots, count, *shape), np.int64)
        level = np.empty((n_slots, count), np.int64)
        noise = np.empty((n_slots, count), np.int64)
        cts = [h.ct for h in operands["h"][:, inputs].T.ravel()]
        n_in = len(inputs)
        words[input_slots] = np.reshape([ct.words for ct in cts], (n_in, count, *shape))
        level[input_slots] = np.reshape([ct.level for ct in cts], (n_in, count))
        noise[input_slots] = np.reshape([ct.noise_est for ct in cts], (n_in, count))
        step = max(1, self.CHUNK_BYTES // (8 * n_ct * n_ct))
        for a, b, dst, src, not_dst in levels:
            if len(a):
                lvl = np.maximum(level[a], level[b]) + 1
                top = int(lvl.max())
                if top > budget:
                    raise NoiseOverflowError(
                        f"NAND at level {top} would exceed depth budget {budget}")
                left, right, n_left, n_right = words[a], words[b], noise[a], noise[b]
                swap = n_right > n_left  # the noisier operand goes left
                if swap.any():
                    left[swap], right[swap] = right[swap], left[swap]
                    n_left, n_right = np.maximum(n_left, n_right), np.minimum(n_left, n_right)
                left, right = left.reshape(-1, *shape), right.reshape(-1, *shape)
                words[dst] = np.concatenate([
                    scheme.nand_words(left[lo:lo + step], right[lo:lo + step])
                    for lo in range(0, len(left), step)]).reshape(len(a), count, *shape)
                level[dst] = lvl
                noise[dst] = np.minimum(n_left + n_ct * n_right, q)
                self.nand_count += len(left)
                self.max_depth = max(self.max_depth, top)
            if len(src):
                nots = scheme.not_words(words[src].reshape(-1, *shape))
                words[not_dst] = nots.reshape(len(src), count, *shape)
                level[not_dst], noise[not_dst] = level[src], noise[src]
        res = zip(words[output_slots].reshape(-1, *shape), level[output_slots].ravel().tolist(),
                  noise[output_slots].ravel().tolist())
        wired = np.empty(len(output_slots) * count, object)
        wired[:] = [FheBit(self, Ciphertext(w, lv, ns), None) for w, lv, ns in res]
        is_wire = net.out_const < 0
        out["h"][:, is_wire] = wired.reshape(-1, count).T
        for k in np.flatnonzero(~is_wire):
            out["h"][:, k] = self.constant(int(net.out_const[k]))
        return out


_FHE_WIRE = np.dtype([("h", object), ("c", np.int8)])

# netlist -> its _slot_plan; like ``netlist.CACHE``, which holds every netlist
# for the life of the process, a memo of a pure function of the key
_PLANS: dict = {}


def _slot_plan(net):
    """Where ``FheEngine.run`` keeps each wire of a netlist: (slot count,
    operand columns loaded, their slots, levels, slot of each wire output).

    Each of ``levels`` holds the slots of its NANDs' ``a`` and ``b``
    operands and of their results, then those of its folded NOTs' sources
    and results.  A slot is reused once the last level that reads its wire
    has run; output wires keep theirs.
    """
    one = net.one
    last = {}  # row -> index of the last level that reads it
    for k, (_, ops) in enumerate(net.levels()):
        last.update(dict.fromkeys(ops.tolist(), k))
    outputs = net.outputs[net.out_const < 0].tolist()
    kept = set(outputs)
    slot, free, fresh = {}, [], iter(range(net.n_rows))

    def place(rows):
        for row in rows:
            slot[row] = free.pop() if free else next(fresh)
        return np.array([slot[row] for row in rows], dtype=np.int64)

    def release(rows):
        free.extend(slot[row] for row in rows if row not in kept)

    inputs = sorted(row for row in set(last) | kept if row < one)
    input_slots = place(inputs)
    levels = []
    for k, (lo, ops) in enumerate(net.levels()):
        width = len(ops) // 2
        a, b = ops[:width].tolist(), ops[width:].tolist()
        gates = [g for g in range(width) if b[g] != one]
        nots = [g for g in range(width) if b[g] == one]
        reads = [np.array([slot[x[g]] for g in which], dtype=np.int64)
                 for x, which in ((a, gates), (b, gates), (a, nots))]
        dst, not_dst = place([lo + g for g in gates]), place([lo + g for g in nots])
        levels.append((reads[0], reads[1], dst, reads[2], not_dst))
        # slots free up after the level that reads their wire last (or that
        # writes a wire nothing reads), so a level never writes a slot it reads
        release(sorted(row for row in set(a + b) - {one} if last[row] == k))
        release([row for row in range(lo, lo + width) if row not in last])
    return (max(slot.values(), default=-1) + 1, np.array(inputs, dtype=np.int64), input_slots,
            levels, np.array([slot[row] for row in outputs], dtype=np.int64))


def _check_owner(engine, handles):
    if any(h.engine is not engine for h in handles):
        raise UsageError("cannot mix handles from different engines")


def _evaluate(net, lanes: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Output lane bytes of a netlist for a (count, n_inputs, lane bytes) block.

    ``work`` holds at least ``net.work_rows`` * count * lane bytes bytes;
    the result is a view into it.
    """
    count, n_in, width = lanes.shape
    cols = count * width
    end = net.n_rows * cols
    values = work[:end].reshape(net.n_rows, cols)
    spare = work[end:net.work_rows * cols].reshape(-1, cols)
    values[:n_in].reshape(n_in, count, width)[...] = lanes.transpose(1, 0, 2)
    values[net.one] = 0xFF
    for lo, ops in net.levels():
        gates = len(ops) // 2
        pair = spare[:2 * gates]
        # mode="clip" skips numpy's copy of ``out`` (indices are in range)
        values.take(ops, axis=0, out=pair, mode="clip")
        rows = values[lo:lo + gates]
        np.bitwise_and(pair[:gates], pair[gates:], out=rows)
        np.invert(rows, out=rows)
    res = spare[:len(net.outputs)]
    values.take(net.outputs, axis=0, out=res, mode="clip")
    res[net.out_const == 0] = 0
    res[net.out_const == 1] = 0xFF
    return res.reshape(-1, count, width).transpose(1, 0, 2)
