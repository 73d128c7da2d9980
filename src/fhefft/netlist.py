"""Word operations recorded once as level-sorted NAND netlists.

``arith.add``, ``arith.sub``, ``arith.mul_const`` and
``arith.butterfly_sums`` build the same gates for every operand whose
bits share one pattern of public constants, so each (operation, format,
constant, pattern) is traced once on a symbolic engine and kept in
memory; the constant is ``mul_const``'s multiplier or ``butterfly_sums``'
kind (``arith.product_rule``).  ``butterfly_sums`` records a butterfly's
two steps of adds and subtracts as one netlist, so each second ripple
follows the carries it reads instead of the first ripple's last level.
The recording folds constants with ``gates.fold``, the rule the bit
engines apply (NAND(x, 0) = 1, NAND(x, 1) = NOT x with no gate), so an
engine that evaluates the netlist makes the same gates, NOTs and constant
outputs as one that runs the word operation gate by gate.

A netlist has one row per input bit and per gate: rows ``0 .. n_inputs-1``
are the operand bits (word after word in argument order, each LSB first;
rows of constant bits are never read), and every later row is the NAND of
two literals.  A literal is ``2 * row``, or ``2 * row + 1`` for the row's
complement: a NOT is a complemented read of its source, as in and-inverter
graphs (Mishchenko, Chatterjee & Brayton, DAC 2006), and costs no row,
gate or depth, since each engine's complement is free.  The outputs are
literals too.  Rows are sorted by evaluation level, so each level is a
contiguous slice whose operands are all in earlier levels.  ``ops`` holds
the gates' operand literals as one (2, gates) array, its ``a`` literals
over its ``b`` literals.  One function orders rows (``_sorted``): a
stable sort by level, so each level keeps its gates in the order given,
for a recorded netlist the order they were recorded in.

``union`` merges netlists into one that evaluates them side by side: its
rows are every part's inputs, part after part, then the parts' gates,
which it hands to the same sort part after part, so level k holds each
part's level-k gates, part after part, and one gather and one NAND step
evaluate a level of every part.  It keeps its parts, in order, as
``parts`` (``members``).

Nothing walks the rows themselves: a netlist is evaluated on its
``Layout``, which gives each value (a row, or the complement of one that a
gate or output reads) a slot of a workspace and reuses a slot once its
value is dead (``_layout``), so a workspace holds the values live at once,
not every row.  The inputs' read complements take the slots after the
inputs'.  Each level reads its operands' slots and writes its NANDs to one
run of consecutive slots, and the complements that a later level or an
output reads, of its first gates, to the start of a second run: the
cleartext engine writes a level's ANDs there and inverts them into its
NANDs, and the FHE engine takes them in one ``not_words`` call.  A
recorded netlist keeps its rows, which ``union`` merges, and lays them
out on first use; a union is laid out as it is merged and keeps only its
layout.  ``Layout.levels`` is the one record of its levels (each one's
first slot, its operand slots as a view of ``ops``, its count of kept
complements and their first slot): both engines evaluate on it, and the
plan compiler walks it once per piece (``plan.walk``) for depths, which
are also FHE levels, and noise.
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
    hold the row count, literals twice it)."""
    return np.uint16 if top < 1 << 16 else np.uint32


def narrow(ids) -> np.ndarray:
    """Non-negative integers in the narrowest unsigned type holding them,
    read-only (``ids`` itself if it has that type)."""
    ids = np.asarray(ids)
    out = ids.astype(_index(int(ids.max(initial=0))), copy=False)
    out.flags.writeable = False
    return out


def _literals(rows: np.ndarray) -> np.ndarray:
    """The map of literals that a map of rows gives: 2r + c -> 2 rows[r] + c."""
    out = np.empty(2 * len(rows), rows.dtype)
    out[0::2] = 2 * rows
    out[1::2] = out[0::2] + 1
    return out


@dataclass(frozen=True, eq=False)
class Layout:
    """Where an evaluation keeps a netlist's values: one slot each of a
    workspace of ``n_slots``, reused once the value is dead (see
    ``_layout``).  A value is a row, or the complement of one that some gate
    or output reads.  The inputs take slots 0 .. n_in-1, and the complements
    of the inputs ``flips`` the next ones, in order.  ``levels`` holds, for
    each level after level 0 (the inputs), the first of the consecutive
    slots its NANDs write, the slots it reads (a view of ``ops``: its gates'
    ``a`` slots, then their ``b`` slots), its count ``kept`` of gates whose
    complement is read (its first ones) and the first of the consecutive
    slots their complements take (its first slot if none is).  Arrays are
    read-only.
    """

    ops: np.ndarray
    levels: tuple
    flips: np.ndarray
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
        return self.ops.nbytes + self.flips.nbytes + self.outputs.nbytes + self.read.nbytes


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
    ops: np.ndarray | None = None  # (2, gates): the gates' a literals over their b literals
    bounds: np.ndarray | None = None  # level k holds rows bounds[k] .. bounds[k+1]-1;
    # level 0 holds the inputs
    outputs: np.ndarray | None = None  # literal of each output bit (0 where it is constant)
    key: tuple | None = None  # the ``CACHE`` key it was recorded under
    parts: tuple = ()  # a union's netlists, in the order of its inputs and outputs

    @property
    def n_rows(self) -> int:
        return self.n_inputs + self.ops.shape[1]

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
        net = Netlist(n_inputs=n_inputs, out_const=out_const, nand_count=ops.shape[1],
                      work_rows=work_rows, **fields)
        # as ``cached_property`` stores it
        net.__dict__["layout"] = _layout(n_inputs, ops, bounds, outputs, out_const)
        return net
    for arr in (ops, bounds, outputs):
        arr.flags.writeable = False
    return Netlist(n_inputs=n_inputs, out_const=out_const, nand_count=ops.shape[1],
                   work_rows=work_rows, ops=ops, bounds=bounds, outputs=outputs, **fields)


def _sorted(n_in, ops, level, outputs) -> tuple:
    """(operand literals, level bounds, output literals) of gates sorted by
    level, given their (2, gates) operand literals ``ops``, their levels
    (from 1) and the output literals, in rows that number gate i
    ``n_in + i``.  The sort is stable: each level keeps its gates in the
    order given."""
    n_rows = n_in + len(level)
    index = _index(2 * n_rows)
    # sorted gate -> given gate, narrowed at once: the sort's intp result is
    # the largest array of a union's merge
    order = np.argsort(level, kind="stable").astype(index)
    rank = np.arange(n_rows, dtype=index)  # given row -> sorted row
    rank[n_in:][order] = np.arange(n_in, n_rows, dtype=index)
    rank = _literals(rank)
    bounds = n_in + np.cumsum(np.bincount(level, minlength=1))  # no gate at level 0
    return rank[ops[:, order]], np.concatenate([[0], bounds]).astype(index), rank[outputs]


def _layout(n_in, ops, bounds, outputs, out_const) -> Layout:
    """The slot layout of level-sorted rows (linear-scan allocation by live
    range), made level by level with no array longer than the literals':
    level k's gates are ``ops[:, lo:hi]``, ``lo, hi`` its bounds less
    ``n_in``.

    A value (a row, or its complement) dies at the last level that reads
    it; a gate's own value dies at its own level if none does, and a
    complement nothing reads takes no slot.  The wired outputs never die.
    The inputs take slots 0 .. n_in-1 and their read complements the next
    ones.  Each level's NANDs take a run of consecutive free slots, the
    shortest long enough (best fit, past the last slot in use if none is),
    its gates whose complement is read first, each gate ordered by the level
    at which the value it keeps dies (its complement if read, else itself):
    the first to die sit at the end of the run whose neighbour dies sooner,
    so that freed slots join free neighbours.  Their complements, the
    level's ANDs before the NANDs' inversion, take the start of a second run
    as long as the level, where the cleartext engine writes every gate's AND
    (``engine._evaluate``); its rest may reach past the last slot in use,
    into the room to gather.  No level writes its NANDs to a slot it reads,
    so the FHE engine writes each ``nand_words`` call's results as they
    come; the second run may also take the slots of the values the level
    reads last, since both engines make the ANDs once the level is read.
    """
    bounds = bounds.tolist()
    spans = [(lo - n_in, hi - n_in) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    never = len(spans) + 1
    dtype = np.int16 if never < 1 << 15 else np.int32
    dies = np.zeros(2 * bounds[-1], dtype)  # per literal
    for k, (lo, hi) in enumerate(spans, 1):  # a later level's write wins
        dies[2 * (n_in + lo):2 * (n_in + hi):2] = k
        dies[ops[:, lo:hi]] = k
    dies[outputs[out_const < 0]] = never
    widest = max((hi - lo for lo, hi in spans), default=0)
    # allocated before the level loop, whose scratch arrays then come and go
    # above it on the heap instead of leaving holes under it
    level_ops = np.empty(2 * ops.shape[1], _index(len(dies) + widest))
    levels = []
    flips = narrow(np.flatnonzero(dies[1:2 * n_in:2]))
    read = narrow(np.flatnonzero(dies[:2 * n_in].reshape(-1, 2).any(axis=1)))
    first = n_in + len(flips)
    # per literal; gates' are set below
    slot = np.zeros(len(dies), _index(len(dies) + widest))
    slot[0:2 * n_in:2] = np.arange(n_in)
    flipped = 2 * flips.astype(np.intp) + 1  # the literals of their complements
    slot[flipped] = np.arange(n_in, first)
    # per slot, the level its value dies at; -1 if free
    held = np.full(len(dies) + widest, -1, dtype)
    held[:n_in] = np.where(dies[0:2 * n_in:2] > 0, dies[0:2 * n_in:2], -1)
    held[n_in:first] = dies[flipped]
    top = first
    for k, (lo, hi) in enumerate(spans, 1):
        width, at = hi - lo, 2 * (n_in + lo)
        own, comp = dies[at:at + 2 * width:2], dies[at + 1:at + 2 * width:2]
        start = _best_fit(held[:top] < 0, width)
        order = np.argsort(-np.where(comp > 0, comp, own), kind="stable")  # the last to die first
        if (held[start - 1] if start else never) < \
                (held[start + width] if start + width < top else never):
            order = order[::-1]  # the first to die next to the left neighbour
        order = order[np.argsort(comp[order] == 0, kind="stable")]  # complements read first
        kept = int(np.count_nonzero(comp))
        slot[at + 2 * order] = np.arange(start, start + width)
        held[start:start + width] = own[order]
        top = max(top, start + width)
        ands = start
        if kept:
            used = held[:top]
            free = (used < 0) | (used == k)  # and the values this level reads last
            free[start:start + width] = False
            ands = _best_fit(free, width)
            slot[at + 2 * order[:kept] + 1] = np.arange(ands, ands + kept)
            held[ands:ands + kept] = comp[order[:kept]]
        top = max(top, ands + kept)
        levels.append((start, kept, ands))
        # each level reads only its own operand literals, so they turn into
        # slots: its a slots, then its b slots
        level_ops[2 * lo:2 * hi] = slot[ops[:, lo + order]].reshape(-1)
        used = held[:top]
        used[used == k] = -1  # the values that die at this level
    level_ops = narrow(level_ops)
    return Layout(level_ops, tuple((start, level_ops[2 * lo:2 * hi], kept, ands)
                                   for (start, kept, ands), (lo, hi) in zip(levels, spans)),
                  flips, narrow(np.where(out_const < 0, slot[outputs], 0)), read, top, widest)


def _best_fit(free: np.ndarray, width: int) -> int:
    """Start of the shortest run of at least ``width`` free slots (the first
    of those), where every slot past ``free`` is free: the run that reaches
    past it only if no other is long enough."""
    flags = np.zeros(len(free) + 2, np.int8)
    flags[1:-1] = free
    edges = np.flatnonzero(np.diff(flags))  # run starts and ends, alternately
    starts, ends = edges[::2], edges[1::2]
    room = np.where(ends < len(free), ends - starts, len(free) + width)
    fits = np.flatnonzero(room >= width)
    return int(starts[fits[np.argmin(room[fits])]]) if len(fits) else len(free)


class _Wire:
    __slots__ = ("engine", "row", "const", "neg")

    def __init__(self, engine, row, const, neg=0):
        self.engine = engine
        self.row = row
        self.const = const  # None for a wire, else the public bit
        self.neg = neg  # 1 for the complement of the row

    @property
    def lit(self) -> int:
        return 2 * self.row + self.neg


class _Recorder:
    """Symbolic bit engine: folds constants with ``fold``, takes a NOT as
    the complement of a row (no gate), records gates (their operand literals
    and levels) in the order they are made."""

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.a, self.b = array("i"), array("i")
        self.level = array("i", bytes(4 * n_inputs))  # per row

    def constant(self, bit: int) -> _Wire:
        return _Wire(self, 0, bit)

    def nand(self, x: _Wire, y: _Wire) -> _Wire:
        if x.const is not None or y.const is not None:
            return fold(self, x, y)
        self.a.append(x.lit)
        self.b.append(y.lit)
        level = self.level
        a, b = level[x.row], level[y.row]
        level.append((a if a >= b else b) + 1)
        return _Wire(self, len(level) - 1, None)

    def free_not(self, x: _Wire) -> _Wire:
        return _Wire(self, x.row, None, 1 - x.neg)

    def compile(self, outputs, key=None) -> Netlist:
        n_in = self.n_inputs
        ops = np.array([np.frombuffer(self.a, np.int32), np.frombuffer(self.b, np.int32)])
        level = np.frombuffer(self.level, np.int32)[n_in:]  # the gates'
        out_lits = np.array([w.lit for w in outputs], np.intp)  # a constant's is 0
        out_const = np.array([-1 if w.const is None else w.const for w in outputs],
                             dtype=np.int8)
        return _netlist(n_in, *_sorted(n_in, ops, level, out_lits), out_const, key=key)


# Memos of pure functions of the key: every caller gets the same netlist or
# plan for the same key, so sharing them across the process changes no
# result.  Neither is bounded.  ``CACHE`` holds netlists (the key's format
# sits at index 1): an M-point transform adds about one per distinct
# twiddle component its product rules ask for, one ``butterfly_sums`` per
# rule kind and pattern of constant words, and its stages a few unions of
# them.  ``PLANS`` holds ``fft``'s transform plans (``plan.Plan``), one
# per key of ``fft._transform``: engine kind, format, dims and input
# pattern.  For M = 8..128 at 32.16 and 100 lanes: 68 netlists, 0.33 MB
# (2 of them laid out, 0.01 MB of it), 13 unions, 0.61 MB, and 5 plans,
# 0.11 MB; ten 16x16 images add a plan of 0.12 MB.  An encrypted M = 8
# transform at 16.8 adds 10 netlists, 0.03 MB with their layouts, and a
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
    n_gates = sum(net.ops.shape[1] for net in nets)
    index = _index(2 * (n_in + n_gates))
    # every part's gates, part after part, renumbered, and their levels: the
    # level sort then gives level k each part's level-k gates in turn
    ops, level = np.empty((2, n_gates), index), np.empty(n_gates, index)
    outputs, at_input, at = [], 0, 0
    for net in nets:
        gates = net.ops.shape[1]
        to_union = _literals(np.concatenate([np.arange(at_input, at_input + net.n_inputs),
                                             np.arange(n_in + at, n_in + at + gates)]
                                            ).astype(index))
        ops[:, at:at + gates] = to_union[net.ops]
        level[at:at + gates] = np.repeat(np.arange(1, len(net.bounds) - 1),
                                         np.diff(net.bounds)[1:])
        outputs.append(to_union[net.outputs])
        at_input, at = at_input + net.n_inputs, at + gates
    rows = _sorted(n_in, ops, level, np.concatenate(outputs))
    del ops, level  # freed before the union is laid out
    return _netlist(n_in, *rows, np.concatenate([net.out_const for net in nets]), parts=nets)


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
