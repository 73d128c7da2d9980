"""Word operations recorded once as level-sorted NAND netlists.

``arith.add``, ``arith.sub``, ``arith.mul_const`` and
``arith.butterfly_sums`` build the same gates for every operand whose
bits share one pattern of public constants, so each (operation, format,
constant, pattern) is traced once on a symbolic engine and kept in
memory; the constant is ``mul_const``'s multiplier or ``butterfly_sums``'
kind (``arith.product_rule``).  ``butterfly_sums`` records a butterfly's
two steps of adds and subtracts as one netlist, so each second ripple
follows the carries it reads instead of the first ripple's last level.  The recording folds
constants with ``gates.fold``, the rule the bit engines apply
(NAND(x, 0) = 1, NAND(x, 1) = NOT x with no gate), so an engine that
evaluates the netlist makes the same gates, folded NOTs and constant
outputs as one that runs the word operation gate by gate.

A netlist has one row per wire: rows ``0 .. n_inputs-1`` are the operand
bits (word after word in argument order, each LSB first; rows of
constant bits are never read), row ``n_inputs`` is the constant 1, and
every later row is ``NAND(row a, row b)``.  A folded NOT is stored as
``NAND(src, ONE)``: on bit-planes that is the complement, and an engine
that folds constants takes it as the free NOT it is, so it adds no gate
and no depth.  Rows are sorted by evaluation level (a folded NOT sits
one level after its source), so each level is a contiguous slice whose
operands are all in earlier levels.  ``ops`` holds the gates' operand
rows as one (2, gates) array, its ``a`` rows over its ``b`` rows.  One
function orders rows (``_sorted``): a stable sort by level, so each
level keeps its gates in the order given, for a recorded netlist the
order they were recorded in.

``union`` merges netlists into one that evaluates them side by side: its
rows are every part's inputs, part after part, then one shared ONE, then
the parts' gates, which it hands to the same sort part after part, so
level k holds each part's level-k gates, part after part, and one gather
and one NAND step evaluate a level of every part.  It keeps its parts,
in order, as ``parts`` (``members``).

Nothing walks the rows themselves: a netlist is evaluated on its
``Layout``, which gives each row a slot of a workspace and reuses a slot
once its row is dead (``_layout``), so a workspace holds the rows live
at once, not every row.  Each level reads its operands' slots and writes
its results to one run of consecutive slots, its folded NOTs first, so
a level's NOTs and NANDs are slices of its operand slots and of its run.
A recorded netlist keeps its rows, which ``union`` merges, and lays them
out on first use; a union is laid out as it is merged and keeps only its
layout.  ``Layout.levels`` is the one record of its levels (each one's
first slot, its operand slots as a view of ``ops``, and its NOT count):
both engines evaluate on it, and the plan compiler walks it once per
piece (``plan.walk``) for depths, which are also FHE levels, and noise.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import arith
from .arith import FixedFormat, FixedWord, encode_int
from .errors import UsageError
from .gates import fold

# the word operations, and the operand words each takes
OPS = {"add": 2, "sub": 2, "mul_const": 1, "butterfly_sums": 6}


def _index(top: int) -> type:
    """The narrowest unsigned type of indices up to ``top`` (level bounds
    hold the row count)."""
    return np.uint16 if top < 1 << 16 else np.uint32


def narrow(ids) -> np.ndarray:
    """Non-negative integers in the narrowest unsigned type holding them,
    read-only (``ids`` itself if it has that type)."""
    ids = np.asarray(ids)
    out = ids.astype(_index(int(ids.max(initial=0))), copy=False)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Layout:
    """Where an evaluation keeps a netlist's rows: one slot each of a
    workspace of ``n_slots``, reused once the row is dead (see ``_layout``).
    ``levels`` holds, for each level after level 0 (the inputs and ONE),
    the first of the consecutive slots it writes, the slots it reads (a
    view of ``ops``: its gates' ``a`` slots, then their ``b`` slots) and
    its count ``nots`` of folded NOTs: its first ``nots`` gates, whose
    ``b`` slot is ONE's; the rest are its NANDs.  Arrays are read-only.
    """

    ops: np.ndarray
    levels: tuple
    outputs: np.ndarray  # slot of each output bit (0 where the output is constant)
    read: np.ndarray  # the inputs whose values are read or output
    n_slots: int
    widest: int  # most gates in one level

    @property
    def work_slots(self) -> int:
        """Slots of an evaluation workspace: every slot, plus room to gather
        both operands of the widest level or the outputs."""
        return self.n_slots + max(2 * self.widest, len(self.outputs))

    @property
    def nbytes(self) -> int:
        return self.ops.nbytes + self.outputs.nbytes + self.read.nbytes


@dataclass(frozen=True, eq=False)
class Netlist:
    """One recorded word operation, or a union of them (arrays are
    read-only).  A recorded netlist keeps its level-sorted rows and builds
    its ``layout`` on first use; a union keeps only its layout."""

    n_inputs: int
    out_const: np.ndarray  # int8: -1 for a wire, else the output's constant bit
    nand_count: int
    work_rows: int  # every row, plus room to gather both operands of the widest
    # level or the outputs: the plan compiler cuts pieces by this measure
    ops: np.ndarray | None = None  # (2, gates): the gates' a rows over their b rows
    bounds: np.ndarray | None = None  # level k holds rows bounds[k] .. bounds[k+1]-1;
    # level 0 holds the inputs and ONE
    outputs: np.ndarray | None = None  # row of each output bit (0 where the output is constant)
    key: tuple | None = None  # the ``CACHE`` key it was recorded under
    parts: tuple = ()  # a union's netlists, in the order of its inputs and outputs

    @property
    def one(self) -> int:
        """Row, and slot, of the constant 1."""
        return self.n_inputs

    @property
    def n_rows(self) -> int:
        return self.n_inputs + 1 + self.ops.shape[1]

    @property
    def members(self) -> tuple:
        """The netlists it evaluates: a union's parts, else itself."""
        return self.parts or (self,)

    @cached_property
    def layout(self) -> Layout:
        """Its slot layout, built once from its rows."""
        return _layout(self.n_inputs, self.ops, self.bounds, self.outputs, self.out_const)

    @property
    def nbytes(self) -> int:
        """Bytes of its own arrays, its layout's included once built."""
        layout = self.__dict__.get("layout")
        return (layout.nbytes if layout else 0) + sum(arr.nbytes for arr in (
            self.ops, self.bounds, self.outputs, self.out_const) if arr is not None)


def _netlist(n_inputs, ops, bounds, outputs, out_const, **fields) -> Netlist:
    """The netlist of level-sorted rows; a union (``parts`` given) is laid
    out at once, over its rows, and keeps only its layout."""
    widest = int(np.diff(bounds.astype(np.intp))[1:].max(initial=0))
    work_rows = int(bounds[-1]) + max(2 * widest, len(outputs))
    out_const.flags.writeable = False
    if fields.get("parts"):
        net = Netlist(n_inputs=n_inputs, out_const=out_const, work_rows=work_rows, **fields)
        # as ``cached_property`` stores it
        net.__dict__["layout"] = _layout(n_inputs, ops, bounds, outputs, out_const)
        return net
    for arr in (ops, bounds, outputs):
        arr.flags.writeable = False
    return Netlist(n_inputs=n_inputs, out_const=out_const, work_rows=work_rows, ops=ops,
                   bounds=bounds, outputs=outputs, **fields)


def _sorted(n_in, ops, level, outputs) -> tuple:
    """(operand rows, level bounds, output rows) of gates sorted by level,
    given their (2, gates) operand rows ``ops``, their levels (from 1) and
    the output rows, in rows that number gate i ``n_in + 1 + i``.  The sort
    is stable: each level keeps its gates in the order given."""
    first, n_rows = n_in + 1, n_in + 1 + len(level)
    index = _index(n_rows)
    # sorted gate -> given gate, narrowed at once: the sort's intp result is
    # the largest array of a union's merge
    order = np.argsort(level, kind="stable").astype(index)
    rank = np.arange(n_rows, dtype=index)  # given row -> sorted row
    rank[first:][order] = np.arange(first, n_rows, dtype=index)
    bounds = first + np.cumsum(np.bincount(level, minlength=1))  # no gate at level 0
    return rank[ops[:, order]], np.concatenate([[0], bounds]).astype(index), rank[outputs]


def _layout(n_in, ops, bounds, outputs, out_const) -> Layout:
    """The slot layout of level-sorted rows (linear-scan allocation by live
    range), made level by level with no array longer than the rows': level
    k's gates are ``ops[:, lo:hi]``, ``lo, hi`` its bounds less the first
    gate row.

    The inputs take slots 0 .. n_in-1 and ONE slot n_in.  A row dies after
    the last level that reads it, or after its own level if none does; ONE
    and the wired outputs never die.  A dead row's slot is free from the
    next level on, so no level writes a slot it reads.  Each level's
    results take one run of consecutive free slots, the first long enough
    (first fit, past the last slot in use if none is): its folded NOTs
    (``b`` row ONE) first, then its NANDs, each kind ordered by the level
    at which they die: the first to die sit at the end of the run whose
    neighbour dies sooner, so that freed slots join free neighbours.
    """
    first = n_in + 1  # the first gate row
    bounds = bounds.tolist()
    spans = [(lo - first, hi - first) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    never = len(spans) + 1
    dies = np.zeros(bounds[-1], np.int16 if never < 1 << 15 else np.int32)
    for k, (lo, hi) in enumerate(spans, 1):  # a later level's write wins
        dies[first + lo:first + hi] = k
        dies[ops[:, lo:hi]] = k
    dies[n_in] = never
    dies[outputs[out_const < 0]] = never
    # allocated before the level loop, whose scratch arrays then come and go
    # above it on the heap instead of leaving holes under it
    level_ops = np.empty(2 * ops.shape[1], ops.dtype)
    starts, nots = [], []
    read = narrow(np.flatnonzero(dies[:n_in] > 0))
    slot = np.arange(len(dies), dtype=ops.dtype)  # the inputs' and ONE's; gates' are set below
    held = np.full(len(dies), -1, dies.dtype)  # per slot, the level its row dies at; -1 if free
    held[:first] = np.where(dies[:first] > 0, dies[:first], -1)  # inputs nothing reads are free
    top = first
    for k, (lo, hi) in enumerate(spans, 1):
        width = hi - lo
        start = _first_fit(held[:top] < 0, width)
        starts.append(start)
        order = np.argsort(-dies[first + lo:first + hi], kind="stable")  # the last to die first
        if (held[start - 1] if start else never) < \
                (held[start + width] if start + width < top else never):
            order = order[::-1]  # the first to die next to the left neighbour
        nand = ops[1, lo:hi][order] != n_in
        order = order[np.argsort(nand, kind="stable")]  # the folded NOTs first
        nots.append(width - int(np.count_nonzero(nand)))
        slot[first + lo + order] = np.arange(start, start + width)
        held[start:start + width] = dies[first + lo + order]
        top = max(top, start + width)
        # each level reads only its own operand rows, so they turn into slots:
        # its a slots, then its b slots
        level_ops[2 * lo:2 * hi] = slot[ops[:, lo + order]].reshape(-1)
        used = held[:top]
        used[used == k] = -1  # the rows that die at this level
    level_ops = narrow(level_ops)
    return Layout(level_ops, tuple((start, level_ops[2 * lo:2 * hi], n)
                                   for start, (lo, hi), n in zip(starts, spans, nots)),
                  narrow(np.where(out_const < 0, slot[outputs], 0)), read, top,
                  max(hi - lo for lo, hi in spans) if spans else 0)


def _first_fit(free: np.ndarray, width: int) -> int:
    """Start of the first run of ``width`` free slots, where every slot
    past ``free`` is free."""
    flags = np.zeros(len(free) + width + 2, np.int8)
    flags[1:len(free) + 1] = free
    flags[len(free) + 1:-1] = 1
    edges = np.flatnonzero(np.diff(flags))  # run starts and ends, alternately
    return int(edges[::2][np.argmax(edges[1::2] - edges[::2] >= width)])


class _Wire:
    __slots__ = ("engine", "row", "const")

    def __init__(self, engine, row, const):
        self.engine = engine
        self.row = row
        self.const = const  # None for a wire, else the public bit


class _Recorder:
    """Symbolic bit engine: folds constants with ``fold``, records gates
    (their operand rows and levels) in the order they are made."""

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.a, self.b = array("i"), array("i")
        self.level = array("i", bytes(4 * (n_inputs + 1)))  # inputs and ONE

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
        level = self.level
        level.append((level[a] if level[a] >= level[b] else level[b]) + 1)
        return _Wire(self, len(level) - 1, None)

    def compile(self, outputs, key=None) -> Netlist:
        n_in = self.n_inputs
        ops = np.array([np.frombuffer(self.a, np.int32), np.frombuffer(self.b, np.int32)])
        level = np.frombuffer(self.level, np.int32)[n_in + 1:]  # the gates'
        out_rows = np.array([w.row for w in outputs], np.intp)  # a constant's row is 0
        out_const = np.array([-1 if w.const is None else w.const for w in outputs],
                             dtype=np.int8)
        return _netlist(n_in, *_sorted(n_in, ops, level, out_rows), out_const,
                        nand_count=int((ops[1] != n_in).sum()), key=key)


# Memos of pure functions of the key: every caller gets the same netlist or
# plan for the same key, so sharing them across the process changes no
# result.  Neither is bounded.  ``CACHE`` holds netlists (the key's format
# sits at index 1): an M-point transform adds about one per distinct
# twiddle component its product rules ask for, one ``butterfly_sums`` per
# rule kind and pattern of constant words, and its stages a few unions of
# them.  ``PLANS`` holds ``fft``'s transform plans (``plan.Plan``), one
# per key of ``fft._transform``: engine kind, format, dims and input
# pattern.  For M = 8..128 at 32.16 and 100 lanes: 68 netlists, 0.45 MB
# (2 of them laid out, 0.01 MB of it), 13 unions, 0.82 MB, and 5 plans,
# 0.11 MB; ten 16x16 images add a plan of 0.12 MB.  An encrypted M = 8
# transform at 16.8 adds 9 netlists, 0.04 MB with their layouts, and a
# plan of 4,784 bytes: an FHE plan holds no slot per gate and operand set.
CACHE: dict[tuple, Netlist] = {}
PLANS: dict[tuple, object] = {}


def word_op(op: str, fmt: FixedFormat, pattern: np.ndarray, c: float | None = None) -> Netlist:
    """The netlist of ``op`` on operands whose bits have the given constants.

    ``pattern`` holds one int8 per input bit of the ``OPS[op]`` operand
    words, in argument order: -1 for a wire, 0 or 1 for a public constant.
    ``c`` is the ``mul_const`` multiplier or the ``butterfly_sums`` kind
    (``arith.product_rule``).  The outputs are the result words' bits, in
    order (the four sums of ``butterfly_sums``).
    """
    if op not in OPS:
        raise UsageError(f"unknown word operation {op!r}")
    c_int = None  # add and sub take no ``c``
    if op == "mul_const":
        c_int = encode_int(c, fmt)
    elif op == "butterfly_sums":
        c_int = c = arith._sums_kind(c, fmt)
    pattern = np.asarray(pattern, dtype=np.int8)
    key = (op, fmt, c_int, pattern.tobytes())
    net = CACHE.get(key)
    if net is None:
        net = CACHE[key] = _record(op, fmt, c, pattern, key)
    return net


def union(nets) -> Netlist:
    """One netlist that evaluates ``nets`` side by side (a single netlist is
    its own union).

    Its inputs are the parts' inputs and its outputs the parts' outputs,
    part after part; its gates are every part's, merged level by level.
    """
    nets = tuple(nets)
    if len(nets) == 1:
        return nets[0]
    # parts are keyed by identity: the key holds them, so no id is reused
    key = ("union", nets[0].key[1] if nets[0].key else None, nets)
    net = CACHE.get(key)
    if net is None:
        net = CACHE[key] = _merge(nets)
    return net


def _merge(nets) -> Netlist:
    n_in = sum(net.n_inputs for net in nets)
    first = n_in + 1  # the first gate row
    n_gates = sum(net.ops.shape[1] for net in nets)
    index = _index(first + n_gates)
    # every part's gates, part after part, renumbered, and their levels: the
    # level sort then gives level k each part's level-k gates in turn
    ops, level = np.empty((2, n_gates), index), np.empty(n_gates, index)
    outputs, at_input, at = [], 0, 0
    for net in nets:
        gates = net.ops.shape[1]
        to_union = np.concatenate([np.arange(at_input, at_input + net.n_inputs), [n_in],
                                   np.arange(first + at, first + at + gates)]).astype(index)
        ops[:, at:at + gates] = to_union[net.ops]
        level[at:at + gates] = np.repeat(np.arange(1, len(net.bounds) - 1),
                                         np.diff(net.bounds)[1:])
        outputs.append(to_union[net.outputs])
        at_input, at = at_input + net.n_inputs, at + gates
    rows = _sorted(n_in, ops, level, np.concatenate(outputs))
    del ops, level  # freed before the union is laid out
    return _netlist(n_in, *rows, np.concatenate([net.out_const for net in nets]),
                    nand_count=sum(net.nand_count for net in nets), parts=nets)


def _record(op, fmt, c, pattern, key) -> Netlist:
    width = fmt.total_bits
    if len(pattern) != OPS[op] * width:
        raise UsageError(f"{len(pattern)} operand bits for {op} at {width} bits")
    rec = _Recorder(len(pattern))
    bits = [rec.constant(int(p)) if p >= 0 else _Wire(rec, i, None)
            for i, p in enumerate(pattern)]
    args = [FixedWord(tuple(bits[at:at + width]), fmt) for at in range(0, len(bits), width)]
    # the multiplier of mul_const, the kind of butterfly_sums
    out = getattr(arith, op)(*args, *((c,) if op in ("mul_const", "butterfly_sums") else ()))
    words = out if isinstance(out, tuple) else (out,)
    return rec.compile([bit for word in words for bit in word.bits], key)
