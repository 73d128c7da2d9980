"""Evaluation plans: a circuit's structure worked out once, replayed by
the engines with gate work only.

A plan runs a sequence of pieces on one flat register of wire values,
which the engine allocates per replay: a slot holds a wire's packed lane
bytes on the cleartext engine, a ciphertext's gadget words under FHE.
Wires come in words, blocks of ``width`` consecutive slots (a fixed-point
word's bits in a transform, single bits in ``run_netlist``), so a plan
holds one block number per word.  A piece is one ``netlist.union`` over
``count`` operand sets, with the blocks of its input and output words;
an engine replays it as one gather of its operand bits, one evaluation
and one scatter of its results (``evaluate``).  A block is reused once
the word in it is dead.

The ``Compiler`` works out everything about a wire but its value, from
the netlists and rules that depend only on the engine kind:

* its public constant, from the netlists' ``out_const``;
* its depth, which is also its FHE level: ``out_depths`` walks the
  levels the engines walk (``netlist.Layout.levels``, each listing its
  folded NOTs before its NANDs) by the rule both engines apply gate by
  gate (a NAND is one deeper than its deeper operand, a folded NOT is
  free), once per distinct row of input depths, and the deepest NAND
  bounds the engine's ``max_depth``; an FHE piece past the depth budget
  is refused as it compiles, so no such plan is kept;
* under FHE (``FheRules``), its noise estimate, NAND by NAND by the rule
  ``GswScheme.hom_nand`` applies (``SchemeParams.nand_noise``), walked on
  the same levels, and each level's swap masks, set where a NAND takes
  its noisier operand on the left: the engine runs a piece on its
  netlist's layout, so a plan holds no slot per gate and operand set.

It also groups word operations (``word_ops``): operand sets that share a
netlist (same operation, multiplier and pattern of constant bits) form a
group, and groups of the same size run side by side as one union, cut
into pieces whose recorded rows (``work_rows`` wires) fit the engine's
``CHUNK_BYTES``.  The cut counts rows, not the fewer slots of a layout:
a cut on slots would put more NANDs in each level of a piece, and so in
each of the FHE engine's batches.  So a plan holds, per stage, its
pieces, NAND count and deepest gate, and every output wire's constant,
depth and noise.  ``replay`` runs a plan on an engine; ``fft`` keys and
memoizes its plans in ``netlist.PLANS``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .netlist import narrow, union, word_op

# bound on the workspace of one depth walk over a netlist's layout; a cold
# compile's peak memory is set in the walks of its largest unions
_DEPTH_BYTES = 1 << 19


class _Blocks:
    """Numbers of blocks in use: ``take`` reuses released ones first."""

    def __init__(self, n: int = 0):
        self.free, self.n = [], n

    def take(self, k: int) -> list:
        reuse = min(k, len(self.free))
        ids = self.free[len(self.free) - reuse:] + list(range(self.n, self.n + k - reuse))
        del self.free[len(self.free) - reuse:]
        self.n += k - reuse
        return ids

    def release(self, ids):
        self.free += list(ids)


def slots(blocks, width: int) -> np.ndarray:
    """Register slot of each bit of the words in ``blocks`` (words, ...):
    an array of shape (words * width, ...), each word's bits in order."""
    blocks = np.asarray(blocks, dtype=np.intp)
    bit = np.arange(width).reshape(width, *[1] * (blocks.ndim - 1))
    return (blocks[:, None] * width + bit).reshape(len(blocks) * width, *blocks.shape[1:])


class Piece(NamedTuple):
    """One netlist over ``count`` operand sets: the blocks of its input and
    output words, each of shape (words, count), and under FHE its NANDs'
    swap masks (``FheRules.swaps``)."""

    net: object
    width: int
    ins: np.ndarray
    outs: np.ndarray
    swaps: tuple | None = None

    @property
    def count(self) -> int:
        return self.ins.shape[1]

    @property
    def nbytes(self) -> int:
        return self.ins.nbytes + self.outs.nbytes + sum(s.nbytes for s in self.swaps or ())


class Stage(NamedTuple):
    """Pieces that run in order, their NANDs and deepest gate (``size`` is
    an FFT stage's butterfly span, 0 elsewhere)."""

    size: int
    pieces: tuple
    nand_count: int
    max_depth: int


class Plan(NamedTuple):
    """Stages on a register of ``n_slots`` wires: the blocks the input and
    output words take, and each output bit's constant, depth (and noise),
    in the layout of the wire arrays."""

    width: int
    n_slots: int
    inputs: np.ndarray
    outputs: np.ndarray
    meta: np.ndarray
    stages: tuple

    @property
    def nbytes(self) -> int:
        """Bytes of its own arrays (the netlists are ``netlist.CACHE``'s)."""
        return self.inputs.nbytes + self.outputs.nbytes + self.meta.nbytes + \
            sum(p.nbytes for s in self.stages for p in s.pieces)


def out_depths(net, depths: np.ndarray) -> tuple[np.ndarray, int]:
    """Output depths (count, outputs) of a netlist for each row of
    non-negative input depths (count, inputs), and its deepest gate (0
    without rows).

    Depths follow the NAND rule, level by level over the netlist's layout:
    a NAND is one deeper than its deeper operand, a folded NOT
    (``NAND(src, ONE)``, with ONE at depth 0, one of its level's first
    ``nots`` gates) keeps its source's depth, and a constant output is 0.
    The deepest gate is the running maximum of each level's NANDs.  Depths
    are a function of the row of input depths, so they are taken once per
    distinct row, in chunks of rows whose workspace fits ``_DEPTH_BYTES``
    (one row at least).
    """
    depths = np.ascontiguousarray(depths, dtype=np.int64)
    keys = depths.view(np.dtype((np.void, depths.itemsize * depths.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    depths = depths[first]
    layout = net.layout
    out = np.empty((len(depths), len(net.out_const)), np.int64)
    chunk = max(1, _DEPTH_BYTES // (8 * layout.work_slots))
    work = np.empty(layout.work_slots * min(chunk, len(depths)), np.int64)
    top = 0
    for lo in range(0, len(depths), chunk):
        rows = depths[lo:lo + chunk]
        end = layout.n_slots * len(rows)
        values = work[:end].reshape(layout.n_slots, len(rows))
        spare = work[end:layout.work_slots * len(rows)].reshape(-1, len(rows))
        values[:net.n_inputs] = rows.T
        values[net.one] = 0
        # narrow operand slots: an intp copy would be the walk's largest array
        for start, ops, nots in layout.levels:
            n = len(ops) // 2
            values.take(ops, axis=0, out=spare[:2 * n], mode="clip")
            np.maximum(spare[:n], spare[n:2 * n], out=values[start:start + n])
            nands = values[start + nots:start + n]
            nands += 1
            top = nands.max(initial=top)
        out[lo:lo + chunk] = values[layout.outputs].T
    out[:, net.out_const >= 0] = 0
    return out[inverse.ravel()], int(top)


class ClearRules:
    """Compile rules of the cleartext engine: constants and depths."""

    key = "clear"
    meta_dtype = np.dtype([("c", np.int8), ("d", np.int32)])  # of a wire

    def check(self, depth: int):
        pass

    def swaps(self, net, words, out):
        return None


CLEAR = ClearRules()


class FheRules:
    """Compile rules of an FHE engine over one parameter set: levels are
    depths, noise estimates grow NAND by NAND, and a plan deeper than the
    depth budget is refused (``check``), by the rules of ``SchemeParams``."""

    meta_dtype = np.dtype([("c", np.int8), ("d", np.int64), ("noise", np.int64)])

    def __init__(self, params):
        self.key, self.params = ("fhe", params), params
        self.check = params.check_nand_level

    def swaps(self, net, words, out) -> tuple | None:
        """Each level's swap masks (NANDs, count) of a netlist over the
        operand sets of ``words``, set where a NAND takes its ``b`` operand
        on the left, and the noise estimates of its outputs, written to
        ``out``.  Noise is followed on ``Layout.levels``, one ``nand_noise``
        over each level's gates, only if some input's estimate is not 0: a
        folded NOT reads ONE, whose estimate is 0, so it keeps its source's
        estimate and never swaps.  This is None if no mask has a bit set."""
        layout, count = net.layout, len(words)
        read = layout.read.astype(np.intp)
        if (words["c"].reshape(count, net.n_inputs)[:, read] >= 0).any():
            raise UsageError("a constant operand where the netlist reads a wire")
        noise = np.zeros((layout.n_slots, count), np.int64)
        noise[read] = words["noise"].reshape(count, net.n_inputs)[:, read].T
        if not noise.any():  # every estimate stays 0 and nothing swaps
            out["noise"] = 0
            return None
        swaps = []
        for start, ops, nots in layout.levels:
            n = len(ops) // 2
            swap, noise[start:start + n] = self.params.nand_noise(noise[ops[:n]], noise[ops[n:]])
            swaps.append(swap[nots:])
        wired = net.out_const < 0
        noise_out = np.zeros((count, len(net.out_const)), np.int64)
        noise_out[:, wired] = noise[layout.outputs[wired]].T
        out["noise"] = noise_out.reshape(out["noise"].shape)
        return tuple(swaps) if any(swap.any() for swap in swaps) else None


class Compiler:
    """Builds a plan from the constants, depths (and noise) of its input
    wires, given as ``meta`` records in wire-array layout (words of
    ``width`` bits), for an engine of the given rules whose pieces hold at
    most ``fits`` workspace rows.

    ``inputs`` is the input signal as compiled words: records of a
    ``block`` and each bit's constant, depth (and noise).  ``word_ops`` and
    ``piece`` compile evaluations and return their output words (refusing,
    by ``rules.check``, a piece deeper than an FHE depth budget);
    ``release`` hands back the blocks of words nothing reads any more;
    ``stage`` closes a stage and ``finish`` the plan.
    """

    def __init__(self, rules, width: int, fits: int, meta: np.ndarray):
        self.rules, self.width, self.fits = rules, width, fits
        kinds = rules.meta_dtype
        self.dtype = np.dtype([("block", np.int64),
                               *((name, kinds[name], (width,)) for name in kinds.names)])
        self.blocks = _Blocks()
        self.pieces, self.stages, self.nand_count, self.max_depth = [], [], 0, 0
        bits = meta.reshape(-1, width)
        self.inputs = np.empty(len(bits), self.dtype)
        self.inputs["block"] = self.blocks.take(len(bits))
        for name in kinds.names:
            self.inputs[name] = bits[name]

    def release(self, words: np.ndarray):
        self.blocks.release(words["block"].ravel().tolist())

    def piece(self, net, words: np.ndarray) -> np.ndarray:
        """Compile ``net`` over each row of operand words (count, words);
        returns its output words (count, words)."""
        count, width = len(words), self.width
        out = np.empty((count, len(net.out_const) // width), self.dtype)
        out["block"] = np.reshape(self.blocks.take(out.size), out.shape)
        out["c"] = net.out_const.reshape(-1, width)
        depths, top = out_depths(net, words["d"].reshape(count, net.n_inputs))
        self.rules.check(top)
        out["d"] = depths.reshape(out["d"].shape)
        swaps = self.rules.swaps(net, words, out)
        self.pieces.append(Piece(net, width, narrow(words["block"].T), narrow(out["block"].T),
                                 swaps))
        self.nand_count += net.nand_count * count
        self.max_depth = max(self.max_depth, top)
        return out

    def word_ops(self, op: str, fmt, operands: np.ndarray, consts=None) -> np.ndarray:
        """``op`` on every row of operand words (rows, words in), with the
        multiplier ``consts[row]`` for ``mul_const``: the output words
        (rows, words out).

        Rows that share a netlist (same constant multiplier and pattern of
        constant bits) form a group.  Groups with the same row count run
        side by side as one union, one piece per run of them whose
        ``work_rows`` fit ``fits``.  The cut does not depend on the row
        count, so every transform size that runs a stage shares its unions.
        """
        pattern = np.ascontiguousarray(operands["c"]).reshape(len(operands), -1)
        keys = pattern if consts is None else np.concatenate(  # the multiplier's bytes first
            [np.asarray(consts, dtype=np.float64)[:, None].view(np.int8), pattern], axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        order = np.argsort(keys, kind="stable")  # equal keys adjacent, in row order
        ordered = keys[order]
        by_count = {}
        for rows in np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1):
            c = None if consts is None else consts[rows[0]]
            net = word_op(op, fmt, pattern[rows[0]], c)
            by_count.setdefault(len(rows), []).append((rows, net))
        # every netlist of one op has as many output words as the last group's
        out = np.empty((len(operands), len(net.out_const) // self.width), self.dtype)
        for count, groups in by_count.items():
            for piece in _pieces(groups, self.fits):
                rows = np.stack([r for r, _ in piece])  # (parts, count)
                res = self.piece(union(net for _, net in piece),
                                 operands[rows.T].reshape(count, -1))
                out[rows] = res.reshape(count, len(piece), -1).swapaxes(0, 1)
        return out

    def stage(self, size: int = 0):
        self.stages.append(Stage(size, tuple(self.pieces), self.nand_count, self.max_depth))
        self.pieces, self.nand_count, self.max_depth = [], 0, 0

    def finish(self, outputs: np.ndarray) -> Plan:
        """The plan whose output is the words ``outputs``, in layout order."""
        if self.pieces:
            self.stage()
        bits = outputs.reshape(-1)
        meta = np.empty(bits.size * self.width, self.rules.meta_dtype)
        for name in meta.dtype.names:
            meta[name] = bits[name].reshape(-1)
        meta.flags.writeable = False
        return Plan(self.width, self.blocks.n * self.width, narrow(self.inputs["block"]),
                    narrow(bits["block"]), meta, tuple(self.stages))


def _pieces(groups, fits):
    """Runs of (rows, netlist) groups whose summed ``work_rows`` stay within
    ``fits``; a group that alone exceeds it is a piece of its own."""
    piece, rows = [], 0
    for group in groups:
        if piece and rows + group[1].work_rows > fits:
            yield piece
            piece, rows = [], 0
        piece.append(group)
        rows += group[1].work_rows
    yield piece


def replay(engine, plan: Plan, wires: np.ndarray, on_stage=None) -> np.ndarray:
    """Run a plan on an engine from a wire array of its inputs; returns the
    flat wire array of its outputs.

    Each stage's pieces run and its NANDs and depth are added to the
    engine's, before ``on_stage(stage)`` is called.
    """
    register = engine.load(wires.reshape(-1), slots(plan.inputs, plan.width), plan.n_slots)
    for stage in plan.stages:
        for piece in stage.pieces:
            engine.evaluate(piece, register)
        engine.nand_count += stage.nand_count
        engine.max_depth = max(engine.max_depth, stage.max_depth)
        if on_stage is not None:
            on_stage(stage)
    return engine.unload(register, slots(plan.outputs, plan.width), plan.meta)


def run_netlist(engine, net, operands: np.ndarray) -> np.ndarray:
    """``engine.run``: a netlist on each row of a (count, inputs) wire array,
    compiled as a one-piece plan of single-bit words and replayed."""
    comp = Compiler(engine.rules, 1, 0, engine.wire_meta(operands))
    out = comp.piece(net, comp.inputs.reshape(operands.shape))
    return replay(engine, comp.finish(out), operands).reshape(out.shape)
