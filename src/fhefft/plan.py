"""Evaluation plans: a circuit's structure worked out once, replayed by
the engines with gate work only.

A plan runs a sequence of pieces on one flat register of wire values,
which the engine allocates per replay: a slot holds a wire's packed lane
bytes on the cleartext engine, a ciphertext's gadget words under FHE.
Wires come in words, blocks of ``width`` consecutive slots (a fixed-point
word's bits in a transform, single bits in ``engine.run``), so a plan
holds one block number per word.  A piece is one ``netlist.union`` over
``count`` operand sets, with the blocks of its input and output words;
an engine replays it as one gather of its operand bits, one evaluation
and one scatter of its results (``evaluate``).  A block is reused once
the word in it is dead.

The ``Compiler`` works out everything about a wire but its value, from
the netlists and, under FHE, the scheme's parameters:

* its public constant, from the netlists' ``out_const``;
* its depth, which is also its FHE level, and under FHE its noise
  estimate: one ``walk`` per piece follows the levels the engines walk
  (``netlist.Layout.levels``, each listing its folded NOTs before its
  NANDs) by the rules the engines apply gate by gate (a NAND is one
  deeper than its deeper operand, a folded NOT is free, and noise grows
  by ``SchemeParams.nand_noise``, the rule of ``GswScheme.hom_nand``),
  once per distinct row of input records; the deepest NAND bounds the
  engine's ``max_depth``, and an FHE piece past the depth budget is
  refused as it compiles, so no such plan is kept;
* under FHE, each level's swap masks, from the same walk, set where a
  NAND takes its noisier operand on the left: the engine runs a piece on
  its netlist's layout, so a plan holds no slot per gate and operand set.

It also groups word operations (``word_ops``): operand sets that share a
netlist (same operation, multiplier and pattern of constant bits) form a
group, and groups of the same size run side by side as one union, cut
into pieces whose recorded rows (``work_rows`` wires) fit the engine's
``CHUNK_BYTES``.  The cut counts rows, not a layout's fewer slots: cut on
slots, the encrypted M = 8 transform at 16.8 ran 10 pieces and 407
``nand_words`` calls, not 13 and 516, in no less time, and every recorded
netlist was laid out, which grew M = 128's netlists at 32.16 from
1,427,264 to 1,893,324 bytes.  So a plan holds, per stage, its pieces,
NAND count and deepest gate, and every output wire's constant, depth and
noise.  ``replay``, the one runner of plans, runs a plan on an engine:
``fft`` keys and memoizes its plans in ``netlist.PLANS``, and
``engine.run`` compiles a netlist as one piece.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .netlist import narrow, union, word_op

# bound on the workspace of one walk over a netlist's layout; a cold compile's
# peak memory is set in the walks of its largest unions
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
    swap masks (``walk``)."""

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


def walk(net, words, out, params=None) -> tuple[int, tuple | None]:
    """Write the output depths, and under FHE (``params``) noise estimates,
    of a netlist over each row of operand words (count, words) to ``out``
    (count, words); return its deepest NAND (0 without rows) and each
    level's swap masks (NANDs, count), set where a NAND takes its ``b``
    operand on the left, or None if no mask has a bit set.

    One walk over ``Layout.levels`` follows the NAND rule (a NAND is one
    deeper than its deeper operand, a folded NOT, ``NAND(src, ONE)`` among
    a level's first ``nots`` gates, keeps its source's depth, a constant
    output is 0) and, on the same gathers, ``SchemeParams.nand_noise`` if
    some read input's estimate is not 0 (ONE's is 0, so a folded NOT keeps
    its source's estimate and never swaps).  An FHE piece past the depth
    budget is refused (``SchemeParams.check_nand_level``).  The walk takes
    each distinct row of input records once, in chunks whose workspace
    fits ``_DEPTH_BYTES`` (one row at least).
    """
    layout, count, n_in = net.layout, len(words), net.n_inputs
    rows = np.ascontiguousarray(words["d"].reshape(count, n_in), dtype=np.int64)
    noisy = False
    if params is not None:
        read = layout.read.astype(np.intp)
        if (words["c"].reshape(count, n_in)[:, read] >= 0).any():
            raise UsageError("a constant operand where the netlist reads a wire")
        noise = np.zeros_like(rows)
        noise[:, read] = words["noise"].reshape(count, n_in)[:, read]
        if noisy := bool(noise.any()):
            rows = np.concatenate([rows, noise], axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows, inverse = rows[first], inverse.ravel()
    planes = 1 + noisy  # depths, then noise estimates
    res = np.empty((planes, len(rows), len(net.out_const)), np.int64)
    masks = [np.empty((len(ops) // 2 - nots, len(rows)), bool)
             for _, ops, nots in layout.levels] if noisy else []
    chunk = max(1, _DEPTH_BYTES // (8 * planes * layout.work_slots))
    work = np.empty((planes, layout.work_slots * min(chunk, len(rows))), np.int64)
    top = 0
    for lo in range(0, len(rows), chunk):
        part = rows[lo:lo + chunk]
        end = layout.n_slots * len(part)
        values = work[:, :end].reshape(planes, layout.n_slots, len(part))
        spare = work[:, end:layout.work_slots * len(part)].reshape(planes, -1, len(part))
        values[:, :n_in] = part.reshape(len(part), planes, n_in).transpose(1, 2, 0)
        values[:, net.one] = 0
        depth, gather = values[0], spare[0]
        # narrow operand slots: an intp copy would be the walk's largest array
        for k, (start, ops, nots) in enumerate(layout.levels):
            n = len(ops) // 2
            depth.take(ops, axis=0, out=gather[:2 * n], mode="clip")
            np.maximum(gather[:n], gather[n:2 * n], out=depth[start:start + n])
            nands = depth[start + nots:start + n]
            nands += 1
            top = nands.max(initial=top)
            if noisy:
                values[1].take(ops, axis=0, out=spare[1, :2 * n], mode="clip")
                swap, values[1, start:start + n] = params.nand_noise(spare[1, :n],
                                                                     spare[1, n:2 * n])
                masks[k][:, lo:lo + len(part)] = swap[nots:]
        res[:, lo:lo + len(part)] = values[:, layout.outputs].swapaxes(1, 2)
    res[:, :, net.out_const >= 0] = 0
    out["d"] = res[0, inverse].reshape(out["d"].shape)
    if params is not None:
        params.check_nand_level(int(top))
        out["noise"] = res[1, inverse].reshape(out["noise"].shape) if noisy else 0
    swapped = any(mask.any() for mask in masks)
    return int(top), tuple(mask[:, inverse] for mask in masks) if swapped else None


class Compiler:
    """Builds a plan from the constants, depths (and noise) of its input
    wires, given as ``meta`` records in wire-array layout (words of
    ``width`` bits), for an engine of the given FHE parameters (None in
    cleartext) whose pieces hold at most ``fits`` workspace rows.

    ``inputs`` is the input signal as compiled words: records of a
    ``block`` and each bit's constant, depth (and noise).  ``word_ops`` and
    ``piece`` compile evaluations and return their output words (refusing,
    in ``walk``, a piece deeper than an FHE depth budget); ``release``
    hands back the blocks of words nothing reads any more; ``stage``
    closes a stage and ``finish`` the plan.
    """

    def __init__(self, params, width: int, fits: int, meta: np.ndarray):
        self.params, self.width, self.fits, self.meta_dtype = params, width, fits, meta.dtype
        self.dtype = np.dtype([("block", np.int64),
                               *((name, meta.dtype[name], (width,)) for name in meta.dtype.names)])
        self.blocks = _Blocks()
        self.pieces, self.stages, self.nand_count, self.max_depth = [], [], 0, 0
        bits = meta.reshape(-1, width)
        self.inputs = np.empty(len(bits), self.dtype)
        self.inputs["block"] = self.blocks.take(len(bits))
        for name in meta.dtype.names:
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
        top, swaps = walk(net, words, out, self.params)
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
        meta = np.empty(bits.size * self.width, self.meta_dtype)
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
