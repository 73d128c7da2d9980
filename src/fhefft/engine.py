"""Bit engines: the backend abstraction every circuit is built against.

A circuit is a composition of ``engine.nand`` calls over opaque
``BitHandle`` values.  Two interchangeable engines are provided:

* ``CleartextEngine`` evaluates bits exactly in plaintext.  A handle packs
  ``batch_size`` independent evaluation lanes into one python integer, so
  one pass over a circuit evaluates it for many independent inputs (e.g.
  all trials of an experiment) while counting each gate once.
* ``FheEngine`` evaluates bits as ciphertexts of a ``GswScheme``.

Besides gate-by-gate ``nand``, each engine replays compiled plans
(``plan``): a plan's structure (which netlist runs on which wires, and
every wire's constant, depth, level and noise estimate) is worked out once
by the plan compiler, so an engine does gate work only.  ``load`` puts a
wire array's values in a flat register of slots, ``evaluate`` runs one
plan piece on it (one gather of its operand bits, one evaluation, one
scatter of its results), and ``unload`` makes a wire array of slots with
the plan's constants and depths (or levels and noise estimates), which
``wire_meta`` reads from wire arrays; one ``load``, ``unload`` and
``wire_meta`` serve both engines; ``unload`` alone writes a constant
wire's value (no piece reads a constant output's slot, since
``netlist.word_op`` keys netlists by their constant bits).  Both walk a
piece's netlist layout (``netlist.Layout.levels``) level by level, on
slots reused once their rows are dead, writing each level's folded NOTs
and then its NANDs to its run of slots.  The cleartext engine holds the
slots as numpy bit-planes, in chunks of operand sets whose workspace
fits ``CHUNK_BYTES``, and takes a NOT as the NAND with ONE it is stored
as.  The FHE engine holds them on a scratch of (slot, operand set,
words): a level's folded NOTs are one ``not_words`` call and its NANDs,
for every operand set, batched ``GswScheme.nand_words`` products of at
most ``CHUNK_BYTES`` of decomposed bits, with the operands the piece's
swap masks mark exchanged; both kernels take the (gates, sets, N, n+1)
words as gathered, with no reshape.  An FHE plan past the depth budget
is refused as it compiles.  ``run`` evaluates one recorded
``netlist.Netlist`` (or union) over many operand sets: it compiles and
replays a one-piece plan.  The ciphertexts, operation counts, levels and
noise estimates are those of the gate-by-gate circuit.

Operands and results are the engine's wire arrays (``wires`` turns
handles into one, ``handles`` turns it back): record arrays of
``wire_dtype`` holding each wire's value ``v`` (its packed lane bytes in
cleartext, its ciphertext's N x (n+1) gadget words under FHE) beside the
fields of the engine's ``meta_dtype``: its public constant ``c``
(-1 for a variable wire), its depth ``d`` (under FHE its level) and,
under FHE, its noise estimate ``noise``.  A constant wire's value is its
bit in every lane, or the words of its trivial ciphertext at level 0 and
noise 0 (``export_ct``).  ``input_wires`` makes variable wires straight
from an array of lane bits and ``read_wires`` reads lane bits back, so a
signal is encoded and decoded without a handle per bit: the cleartext
engine packs and unpacks the lane bytes in numpy, the FHE engine
encrypts all bits, and decrypts all wires, in stacked products (the
ciphertexts of one ``encrypt_bit`` per bit in C order, the bits of one
``read_back`` per wire).  ``wire_bytes`` (a wire's packed lanes, or a
ciphertext's words) and ``CHUNK_BYTES`` bound how large a netlist fits one
evaluation workspace.

``_Engine._own`` is the one check that handles are the engine's, made by
``nand``, ``read_back``, ``export_ct``, ``wires``, ``fft.read_signal`` and
``arith``'s gate builder (on a word op's operands, since it folds
constants without ``nand``).
A handle's ``const`` is ``None`` for a variable wire, else its public bit,
which a wire array's ``c`` holds as -1, 0 or 1; ``_Engine.constant`` makes
one, from fields each engine sets, after ``fhe.check_bit``.  A NAND
with a constant operand is folded by ``gates.fold``, the one rule every
engine (and ``netlist``'s recorder and ``arith``'s gate builder) applies:
NAND(x, 0) = 1, NAND(x, 1) = NOT x without a gate (each engine's
``free_not``: a bit flip in cleartext, the linear ciphertext complement
under FHE, which the word ops also take for every NOT they make), and
two constants give a constant.  Folded gates do not increment the NAND
counter.  Because constants are public circuit structure (e.g. twiddle
bits), this mirrors the cost treatment of constant multiplication, at
the price of leaking which result bits are forced; see README.

Decryption below the noise threshold is exact, so any circuit evaluated
on both engines yields identical bits; the cleartext engine is the
bit-exact reference, not a floating-point emulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, UsageError, _is_count
from .fhe import Ciphertext, GswScheme, KeyPair, check_bit
from .gates import fold
from .plan import Compiler, replay, slots

CLEAR_META = np.dtype([("c", np.int8), ("d", np.int32)])
FHE_META = np.dtype([("c", np.int8), ("d", np.int64), ("noise", np.int64)])


@dataclass(frozen=True)
class GateStats:
    """Snapshot of an engine's gate accounting."""

    nand_count: int
    max_depth: int


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


class _Engine:
    """What both engines share: gate accounting and wire-array plumbing.
    An engine sets ``params`` (None in cleartext), ``meta_dtype``, its handle
    class, and the ``const_values`` (wire values ``v``) and handle fields of
    a constant 0 and of a constant 1."""

    # bound on the working arrays of one piece's evaluation, on the words of
    # one operand set of a plan's merged pieces and, under FHE, on the largest
    # array of one stacked kernel call or container read or write
    CHUNK_BYTES = 1 << 20

    def _init_wires(self, params, meta_dtype, const_values: np.ndarray, handle, const_fields):
        self.params, self.meta_dtype, self.const_values = params, meta_dtype, const_values
        self._handle, self._const_fields = handle, const_fields
        self.wire_dtype = np.dtype([("v", const_values.dtype, const_values.shape[1:]),
                                    *meta_dtype.descr], align=True)

    @property
    def stats(self) -> GateStats:
        return GateStats(self.nand_count, self.max_depth)

    def constant(self, bit: int):
        """A new handle of a public bit (kept ones would tie the engine in a cycle)."""
        return self._handle(self, *self._const_fields[check_bit(bit)])

    def run(self, net, operands: np.ndarray) -> np.ndarray:
        """Evaluate a netlist on each row of a (count, n_inputs) wire array,
        as a one-piece plan of single-bit words, with the counts, depths
        (FHE: ciphertexts, levels and noise estimates) and constants of
        gate-by-gate ``nand``; an FHE netlist too deep raises as it compiles."""
        comp = Compiler(self.params, 1, 0, self.wire_meta(operands))
        out = comp.piece(net, comp.inputs.reshape(operands.shape))
        return replay(self, comp.finish(out), operands).reshape(out.shape)

    def _own(self, *handles):
        """Refuse a handle (or signal) of another engine."""
        for h in handles:
            if h.engine is not self:
                raise UsageError("cannot mix handles from different engines")

    def wire_meta(self, wires: np.ndarray) -> np.ndarray:
        """Packed copy of the ``meta_dtype`` fields of a wire array."""
        return wires[list(self.meta_dtype.names)].astype(self.meta_dtype)

    def load(self, wires: np.ndarray, slots: np.ndarray, n_slots: int) -> np.ndarray:
        """A register of ``n_slots`` wire values, with ``wires`` in ``slots``."""
        register = np.empty((n_slots, *self.const_values.shape[1:]), self.const_values.dtype)
        register[slots] = wires["v"]
        return register

    def unload(self, register: np.ndarray, slots: np.ndarray, meta: np.ndarray) -> np.ndarray:
        """Wire array of the wires in ``slots`` with the meta fields of
        ``meta`` (a constant wire's value is its bit's ``const_values``)."""
        out = np.empty(len(slots), self.wire_dtype)
        out["v"] = register[slots]
        for bit in (0, 1):
            out["v"][meta["c"] == bit] = self.const_values[bit]
        out[list(meta.dtype.names)] = meta
        return out


class CleartextEngine(_Engine):
    """Exact plaintext bit engine with lane packing and gate counting."""

    def __init__(self, batch_size: int = 1):
        if not _is_count(batch_size):
            raise UsageError(f"batch_size must be an integer >= 1, got {batch_size!r}")
        self.batch_size = batch_size = int(batch_size)  # a numpy integer would shift modulo 64
        self.mask = (1 << batch_size) - 1
        self.nand_count = 0
        self.max_depth = 0
        self.wire_bytes = -(-batch_size // 8)  # lane bits of a wire, packed LSB first
        lanes = np.packbits(np.ones(batch_size, np.uint8), bitorder="little")
        self._init_wires(None, CLEAR_META, np.stack([np.zeros_like(lanes), lanes]),
                         ClearBit, ((0, 0, 0), (self.mask, 0, 1)))
        self._record = np.dtype((np.void, self.wire_bytes))  # a wire's lane bytes, whole

    def input_bit(self, lanes: int) -> ClearBit:
        """New variable wire; ``lanes`` packs one bit per lane (0/1 if batch 1)."""
        if not isinstance(lanes, (int, np.integer)):
            raise UsageError(f"lane value must be an integer, got {lanes!r}")
        if not 0 <= lanes <= self.mask:
            raise UsageError(f"lane value {lanes:#x} out of range for "
                             f"batch_size={self.batch_size}")
        return ClearBit(self, int(lanes), 0, None)

    def nand(self, a: ClearBit, b: ClearBit) -> ClearBit:
        self._own(a, b)
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
        self._own(h)
        return h.value

    def input_wires(self, lane_bits) -> np.ndarray:
        """New variable wires of a (..., batch_size) array of lane bits (0/1),
        each wire's lanes packed LSB first; the result has shape ``...``."""
        lane_bits = _lane_array(lane_bits)
        if lane_bits.shape[-1:] != (self.batch_size,):
            raise UsageError(f"lane bits of shape {lane_bits.shape} for "
                             f"batch_size={self.batch_size}")
        if lane_bits.dtype != np.uint8 or lane_bits.max(initial=0) > 1:  # 0/1 bytes need no mask
            if (bad := (lane_bits != 0) & (lane_bits != 1)).any():
                check_bit(lane_bits.item(bad.argmax()))  # the first, as a Python scalar
        out = np.empty(lane_bits.shape[:-1], self.wire_dtype)
        out["v"] = np.packbits(lane_bits.astype(np.uint8, copy=False), -1, bitorder="little")
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
        self._own(*handles)
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

    def unload(self, register: np.ndarray, slots: np.ndarray, meta: np.ndarray) -> np.ndarray:
        """``_Engine.unload`` with the bits past ``batch_size`` cleared, as
        ``input_wires`` leaves them (``evaluate`` inverts whole bytes)."""
        out = super().unload(register, slots, meta)
        out["v"] &= self.const_values[1]
        return out

    def evaluate(self, piece, register: np.ndarray):
        """Gather, evaluate and scatter one plan piece, in chunks of operand
        sets whose workspace fits ``CHUNK_BYTES``."""
        net, count = piece.net, piece.count
        ins, outs = slots(piece.ins, piece.width), slots(piece.outs, piece.width)
        step = max(1, self.CHUNK_BYTES // (self.wire_bytes * net.layout.work_slots))
        work = np.empty(net.layout.work_slots * self.wire_bytes * min(step, count), np.uint8)
        # numpy scatters whole records far faster than rows of bytes
        records = register.view(self._record).reshape(-1)
        for lo in range(0, count, step):
            res = _evaluate(net, register, ins[:, lo:lo + step], work)
            records[outs[:, lo:lo + step]] = res.view(self._record)[..., 0]


class FheEngine(_Engine):
    """Bit engine evaluating gates homomorphically.

    Holds the public key (enough to encrypt inputs and run circuits); give
    it the full ``KeyPair`` to enable ``read_back``.  ``nand`` evaluates
    one gate; ``evaluate`` runs a plan piece level by level for every
    operand set at once, on the ciphertexts' gadget words.
    """

    batch_size = 1

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
        self._init_wires(scheme.params, FHE_META,
                         np.stack([scheme.trivial_encrypt_bit(b).words for b in (0, 1)]),
                         FheBit, ((None, 0), (None, 1)))

    def input_bit(self, bit: int) -> FheBit:
        check_bit(bit)  # before the key: the bit is refused first
        if self.public_key is None:
            raise CapabilityError("encrypting inputs needs the public key")
        ct = self.scheme.encrypt_bit(self.public_key, bit, self.rng)
        return FheBit(self, ct, None)

    def nand(self, a: FheBit, b: FheBit) -> FheBit:
        self._own(a, b)
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
        self._own(h)
        if h.const is not None:
            return h.const
        if self.secret_key is None:
            raise CapabilityError("read_back needs the secret key")
        return self.scheme.decrypt_bit(self.secret_key, h.ct)

    def export_ct(self, h: FheBit) -> Ciphertext:
        """Ciphertext of a wire (constants become trivial ciphertexts)."""
        self._own(h)
        if h.const is not None:
            return self.scheme.trivial_encrypt_bit(h.const)
        return h.ct

    def import_ct(self, ct: Ciphertext) -> FheBit:
        return FheBit(self, ct, None)

    def input_wires(self, lane_bits) -> np.ndarray:
        """Fresh encryptions of a (..., 1) array of bits, the ciphertexts of
        one ``input_bit`` per bit in C order, made by one ``encrypt_words``
        call per ``CHUNK_BYTES`` of masks; the result has shape ``...``."""
        lane_bits = _lane_array(lane_bits, self.input_bit if self.public_key is None else check_bit)
        if lane_bits.shape[-1:] != (1,):
            raise UsageError(f"lane bits of shape {lane_bits.shape} for batch_size=1")
        bits = lane_bits.reshape(-1)
        if len(bits) and (self.public_key is None or (bad := (bits != 0) & (bits != 1)).any()):
            # input_bit raises for the first bit the per-bit loop rejects: the
            # first bit when there is no public key, else the first non-0/1 one
            self.input_bit(bits.item(0 if self.public_key is None else bad.argmax()))
        scheme = self.scheme
        step = max(1, self.CHUNK_BYTES // (8 * scheme.n_ct * scheme.params.m))
        out = np.empty(len(bits), self.wire_dtype)
        for lo in range(0, len(bits), step):
            out["v"][lo:lo + step] = scheme.encrypt_words(self.public_key, bits[lo:lo + step],
                                                         self.rng)
        out["c"], out["d"], out["noise"] = -1, 0, scheme.fresh_noise
        return out.reshape(lane_bits.shape[:-1])

    def read_wires(self, wires: np.ndarray) -> np.ndarray:
        """Decrypted bits of a wire array, shape ``wires.shape + (1,)``: the
        bits of one ``read_back`` per wire, from one ``decrypt_rows`` call per
        ``CHUNK_BYTES`` of decomposed bits.  The first wire ``read_back``
        rejects raises its error."""
        flat = wires.reshape(-1)
        bits = flat["c"].astype(np.int64)
        wired = np.flatnonzero(bits < 0)
        if self.secret_key is not None:
            scheme = self.scheme
            step = max(1, self.CHUNK_BYTES // (scheme.dtype.itemsize * scheme.n_ct))
            for lo in range(0, len(wired), step):
                at = wired[lo:lo + step]
                bits[at] = scheme.decrypt_rows(self.secret_key, flat["v"][at, scheme.mu_index],
                                               flat["d"][at])
        bad = np.flatnonzero(bits < 0)
        if len(bad):
            self.read_back(self.handles(flat[bad[:1]])[0])  # raises that wire's error
        return bits.astype(np.uint8).reshape(*wires.shape, 1)

    def wires(self, handles) -> np.ndarray:
        """Wire array of handles (a constant's value is its ``export_ct``)."""
        self._own(*handles)
        cts = [self.export_ct(h) for h in handles]
        out = np.empty(len(handles), self.wire_dtype)
        out["v"] = np.reshape([ct.words for ct in cts], out["v"].shape)  # also for no handles
        out["d"] = [ct.level for ct in cts]
        out["noise"] = [ct.noise_est for ct in cts]
        out["c"] = [-1 if h.const is None else h.const for h in handles]
        return out

    def handles(self, wires: np.ndarray) -> list[FheBit]:
        """Handles of a wire array (inverse of ``wires``), with their own
        copy of its words."""
        words = np.array(wires["v"])
        return [FheBit(self, Ciphertext(w, d, noise), None) if c < 0 else self.constant(c)
                for w, d, noise, c in zip(words, wires["d"].tolist(), wires["noise"].tolist(),
                                          wires["c"].tolist())]

    def evaluate(self, piece, register: np.ndarray):
        """Gather, evaluate and scatter one plan piece on a scratch of
        (layout slot, operand set, words): per level, one ``not_words`` call
        for its folded NOTs, then ``nand_words`` calls of at most
        ``CHUNK_BYTES`` of decomposed bits on runs of its whole NANDs over
        every operand set (or of sets, when one gate's exceed the bound),
        each on its operands' words as gathered, (gates, sets, N, n+1)."""
        scheme, net, count = self.scheme, piece.net, piece.count
        layout = net.layout
        scratch = np.empty((layout.n_slots, count, *register.shape[1:]), np.int64)
        scratch[layout.read] = register[slots(piece.ins, piece.width)[layout.read]]
        step = max(1, self.CHUNK_BYTES // scheme.nand_bytes)  # NANDs per call
        sets = min(step, max(count, 1))  # every set, unless one gate's exceed ``step``
        per = step // sets  # whole gates per call
        # runs of operand sets as views, so that their gathers stay plain
        parts = [(s0, scratch[:, s0:s0 + sets]) for s0 in range(0, count, sets)]
        for k, (start, ops, nots) in enumerate(layout.levels):
            if nots:
                scratch[start:start + nots] = scheme.not_words(scratch[ops[:nots]])
            ab = ops.reshape(2, -1)[:, nots:]  # the NANDs' a and b slots
            for s0, part in parts:
                nands = part[start + nots:start + len(ops) // 2]  # their results
                for lo in range(0, ab.shape[1], per):
                    at = slice(lo, lo + per)
                    pair = part[ab[:, at]]  # (2, gates, sets, N, n+1)
                    left, right = pair[0], pair[1]  # indexed: an array unpacks slowly
                    if piece.swaps:
                        swap = piece.swaps[k][at, s0:s0 + sets, None, None]
                        left, right = np.where(swap, right, left), np.where(swap, left, right)
                    nands[at] = scheme.nand_words(left, right)
        register[slots(piece.outs, piece.width)] = scratch[layout.outputs]


def _lane_array(lane_bits, check=check_bit) -> np.ndarray:
    """Lane bits as an array.  ``check_bit`` refuses ragged nesting (no array
    of bits).  A complex or object array's entries may equal 0 or 1 without
    being bits: each goes through ``check``, the engine's per-bit rule, as a
    Python scalar in C order, and the array becomes its ints, so the first
    entry it refuses raises (a complex array's first).  A keyless FHE
    engine's rule is ``input_bit``, which raises at the first bit."""
    try:
        arr = np.asarray(lane_bits)
    except ValueError:  # numpy's "inhomogeneous shape"
        check_bit(lane_bits)  # a nested sequence is not a bit: raises
        raise
    if arr.dtype.kind in "cO":
        arr = np.array([check(b.item() if isinstance(b, np.generic) else b)
                        for b in arr.flat], np.uint8).reshape(arr.shape)
    return arr


def _evaluate(net, register: np.ndarray, gather: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Output lane bytes (outputs, count, lane bytes) of a netlist whose
    operand bits are the register rows ``gather`` (inputs, count), evaluated
    on its layout's slots; a constant output's bytes are left undefined.

    ``work`` holds at least ``net.layout.work_slots`` * count * lane bytes
    bytes; the result is a view into it.
    """
    layout = net.layout
    n_in, count = gather.shape
    width = register.shape[1]
    cols = count * width
    end = layout.n_slots * cols
    values = work[:end].reshape(layout.n_slots, cols)
    spare = work[end:layout.work_slots * cols].reshape(-1, cols)
    register.take(gather, axis=0, out=values[:n_in].reshape(n_in, count, width), mode="clip")
    values[net.one] = 0xFF
    for lo, ops, _ in layout.levels:
        gates = len(ops) // 2
        pair = spare[:2 * gates]
        # mode="clip" skips numpy's copy of ``out`` (indices are in range)
        values.take(ops, axis=0, out=pair, mode="clip")
        rows = values[lo:lo + gates]
        np.bitwise_and(pair[:gates], pair[gates:], out=rows)
        np.invert(rows, out=rows)
    res = spare[:len(layout.outputs)]
    values.take(layout.outputs, axis=0, out=res, mode="clip")
    return res.reshape(-1, count, width)
