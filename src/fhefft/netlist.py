"""Word operations recorded once as level-sorted NAND netlists.

``arith.add``, ``arith.sub`` and ``arith.mul_const`` build the same gates
for every operand whose bits share one pattern of public constants, so
each (operation, format, constant, pattern) is traced once on a symbolic
engine and kept in memory.  The recording folds constants with
``engine.fold``, the rule the bit engines apply (NAND(x, 0) = 1,
NAND(x, 1) = NOT x with no gate), so an engine that evaluates the
netlist makes the same gates, folded NOTs and constant outputs as one
that runs the word operation gate by gate.

A netlist has one row per wire: rows ``0 .. n_inputs-1`` are the operand
bits (x then y, LSB first; rows of constant bits are never read), row
``n_inputs`` is the constant 1, and every later row is
``NAND(row a, row b)``.  A folded NOT is stored as ``NAND(src, ONE)``:
on bit-planes that is the complement, and an engine that folds constants
takes it as the free NOT it is, so it adds no gate and no depth.  Rows
are sorted by evaluation level (a folded NOT sits one level after its
source), so each level is a contiguous slice whose operands are all in
earlier levels.  The sort is stable: within a level, rows keep their
recording order.  ``ops`` holds the operands level by level: for the
gates of a level, all their ``a`` rows, then all their ``b`` rows, so one
gather fetches both operands of a whole level.

Depth is read without tracking it per wire: ``out_path[i, o]`` is the
longest NAND path from input i to output o and ``gate_path[i]`` the
longest path from input i through any gate (that gate included);
``NO_PATH`` marks none, and is so negative that adding any input depth
below 2**15 leaves it negative.  An output's depth is the maximum over
inputs of input depth plus path (0 if that is negative: a constant), and
the deepest gate bounds an engine's ``max_depth``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import arith
from .arith import FixedFormat, FixedWord, encode_int
from .engine import fold
from .errors import UsageError

OPS = ("add", "sub", "mul_const")
NO_PATH = np.iinfo(np.int16).min


@dataclass(frozen=True, eq=False)
class Netlist:
    """One recorded word operation (arrays are read-only)."""

    n_inputs: int
    ops: np.ndarray  # operand rows of the gates, blocked by level (see above)
    bounds: np.ndarray  # level k holds rows bounds[k] .. bounds[k+1]-1;
    # level 0 holds the inputs and ONE
    widest: int  # most gates in one level
    outputs: np.ndarray  # row of each output bit (0 where the output is constant)
    out_const: np.ndarray  # int8: -1 for a wire, else the output's constant bit
    out_path: np.ndarray  # int16 (n_inputs, n_outputs)
    gate_path: np.ndarray  # int16 (n_inputs,)
    nand_count: int

    @property
    def one(self) -> int:
        """Row of the constant 1."""
        return self.n_inputs

    @property
    def n_rows(self) -> int:
        return self.n_inputs + 1 + len(self.ops) // 2

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in (self.ops, self.bounds, self.outputs,
                                          self.out_const, self.out_path, self.gate_path))

    def levels(self):
        """(first row, operand rows) of each level after level 0.

        The operand rows of a level of w gates are its w ``a`` rows, then
        its w ``b`` rows.
        """
        bounds, first = self.bounds.tolist(), self.one + 1
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            yield lo, self.ops[2 * (lo - first):2 * (hi - first)]


class _Wire:
    __slots__ = ("engine", "row", "const")

    def __init__(self, engine, row, const):
        self.engine = engine
        self.row = row
        self.const = const  # None for a wire, else the public bit


class _Recorder:
    """Symbolic bit engine: folds constants with ``fold``, records gates.

    Each row's level and its seat among the rows of that level are kept as
    it is recorded, so the level sort is a counting sort done on the way.
    """

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.a, self.b = array("i"), array("i")
        self.level = array("i", bytes(4 * (n_inputs + 1)))  # inputs and ONE
        self.seat = array("i", range(n_inputs + 1))
        self.width = [n_inputs + 1]  # rows per level

    def constant(self, bit: int) -> _Wire:
        return _Wire(self, 0, bit)

    def nand(self, x: _Wire, y: _Wire) -> _Wire:
        if x.const is not None or y.const is not None:
            return fold(self, x, y)
        return self._row(x.row, y.row)

    def free_not(self, x: _Wire) -> _Wire:
        return self._row(x.row, self.n_inputs)  # NOT x = NAND(x, ONE)

    def _row(self, a, b) -> _Wire:
        self.a.append(a)
        self.b.append(b)
        level, width = self.level, self.width
        lvl = (level[a] if level[a] >= level[b] else level[b]) + 1
        level.append(lvl)
        if lvl == len(width):
            width.append(0)
        self.seat.append(width[lvl])
        width[lvl] += 1
        return _Wire(self, len(level) - 1, None)

    def compile(self, outputs) -> Netlist:
        n_in, n_rows = self.n_inputs, len(self.level)
        first = n_in + 1  # the first gate row
        index = np.uint16 if n_rows <= 1 << 16 else np.uint32
        edges = list(accumulate(self.width, initial=0))
        bounds = np.array(edges, dtype=np.int64)
        level = np.frombuffer(self.level, dtype=np.int32)
        seat = np.frombuffer(self.seat, dtype=np.int32)
        rank = bounds[level] + seat  # recorded row -> sorted row
        # a gate's a row sits at its level's block start plus its seat, its
        # b row one level-width further on
        gate_level = level[first:]
        pos = 2 * (bounds[gate_level] - first) + seat[first:]
        ops = np.empty(2 * (n_rows - first), dtype=index)
        ops[pos] = rank[np.frombuffer(self.a, dtype=np.int32)]
        ops[pos + np.asarray(self.width)[gate_level]] = rank[np.frombuffer(self.b, dtype=np.int32)]
        out_rows = np.array([0 if w.const is not None else rank[w.row] for w in outputs],
                            dtype=index)
        out_const = np.array([-1 if w.const is None else w.const for w in outputs],
                             dtype=np.int8)
        out_path, gate_path = _longest_paths(ops, edges, n_in, out_rows, out_const)
        arrays = dict(ops=ops, bounds=bounds.astype(index), outputs=out_rows,
                      out_const=out_const, out_path=out_path, gate_path=gate_path)
        for arr in arrays.values():
            arr.flags.writeable = False
        return Netlist(n_inputs=n_in, widest=max(self.width[1:], default=0),
                       nand_count=int((np.frombuffer(self.b, dtype=np.int32) != n_in).sum()),
                       **arrays)


def _longest_paths(ops, edges, n_in, out_rows, out_const):
    """``out_path`` and ``gate_path`` of a level-sorted netlist (see above).

    Paths are found level by level for a block of inputs at a time, in
    preallocated arrays, which keeps the working memory small.  A row no
    input reaches holds a large negative number (adding the level count
    leaves it negative).
    """
    first, n_rows = n_in + 1, edges[-1]
    levels = list(zip(edges[1:-1], edges[2:]))
    step = np.empty(n_rows - first, dtype=np.int16)  # 1 for a NAND, 0 for a folded NOT
    for lo, hi in levels:
        step[lo - first:hi - first] = ops[2 * lo - 2 * first + hi - lo:2 * (hi - first)] != n_in
    out_path = np.empty((n_in, len(out_rows)), dtype=np.int16)
    gate_path = np.empty(n_in, dtype=np.int16)
    block = min(n_in, max(1, (1 << 16) // n_rows))
    path = np.empty((n_rows, block), dtype=np.int16)
    pair = np.empty((2 * max((hi - lo for lo, hi in levels), default=0), block),
                    dtype=np.int16)
    for i0 in range(0, n_in, block):
        cols = np.arange(i0, min(i0 + block, n_in))
        path.fill(NO_PATH // 2)
        path[cols, cols - i0] = 0
        for lo, hi in levels:
            both = pair[:2 * (hi - lo)]
            path.take(ops[2 * (lo - first):2 * (hi - first)], axis=0, out=both, mode="clip")
            rows = path[lo:hi]
            np.maximum(both[:hi - lo], both[hi - lo:], out=rows)
            rows += step[lo - first:hi - first, None]
        gate_path[cols] = path[first:].max(axis=0, where=step[:, None] == 1,
                                           initial=NO_PATH)[:len(cols)]
        out_path[cols] = np.where(out_const < 0, path[out_rows].T, NO_PATH)[:len(cols)]
    out_path[out_path < 0] = gate_path[gate_path < 0] = NO_PATH
    return out_path, gate_path


# A memo of pure functions of the key: every caller gets the same netlist
# for the same key, so sharing it across the process changes no result.
# It is not bounded: an M-point transform adds about one netlist per
# distinct twiddle component (71 netlists, 0.6 MB, for M = 8..128 at 32.16).
CACHE: dict[tuple, Netlist] = {}


def word_op(op: str, fmt: FixedFormat, pattern: np.ndarray, c: float | None = None) -> Netlist:
    """The netlist of ``op`` on operands whose bits have the given constants.

    ``pattern`` holds one int8 per input bit (x, then y for add and sub):
    -1 for a wire, 0 or 1 for a public constant.  ``c`` is the
    ``mul_const`` multiplier.
    """
    if op not in OPS:
        raise UsageError(f"unknown word operation {op!r}")
    c_int = encode_int(c, fmt) if op == "mul_const" else None
    pattern = np.asarray(pattern, dtype=np.int8)
    key = (op, fmt, c_int, pattern.tobytes())
    net = CACHE.get(key)
    if net is None:
        net = CACHE[key] = _record(op, fmt, c, pattern)
    return net


def _record(op, fmt, c, pattern) -> Netlist:
    width = fmt.total_bits
    if len(pattern) != (width if op == "mul_const" else 2 * width):
        raise UsageError(f"{len(pattern)} operand bits for {op} at {width} bits")
    rec = _Recorder(len(pattern))
    bits = [rec.constant(int(p)) if p >= 0 else _Wire(rec, i, None)
            for i, p in enumerate(pattern)]
    x = FixedWord(tuple(bits[:width]), fmt)
    if op == "mul_const":
        out = arith.mul_const(x, c)
    else:
        out = getattr(arith, op)(x, FixedWord(tuple(bits[width:]), fmt))
    return rec.compile(out.bits)
