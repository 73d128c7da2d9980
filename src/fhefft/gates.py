"""Derived logic gates, all reduced to the engines' NAND primitive.

NAND counts per gate (asserted in the test suite):
NOT 1, AND 2, OR 3, XOR 4, NOR 4, XNOR 5.  NOR and XNOR are unused by the
FFT circuits but included for completeness.

``fold`` is the one rule for a NAND with a public constant operand, which
both engines, ``netlist``'s recorder and ``arith``'s gate builder apply
(see ``engine``).  The word ops of ``arith`` make their NOTs, ANDs and
XORs through that builder, where a NOT is a free complement; the gates
here keep the counts above.
"""


def fold(engine, a, b):
    """NAND of two handles of which at least one is a public constant."""
    if a.const is not None and b.const is not None:
        return engine.constant(1 - (a.const & b.const))
    if b.const is not None:
        a, b = b, a
    # a is the constant: NAND(x, 0) = 1, NAND(x, 1) = NOT x (gate-free)
    return engine.constant(1) if a.const == 0 else engine.free_not(b)


def not_(a):
    return a.engine.nand(a, a)


def and_(a, b):
    return not_(a.engine.nand(a, b))


def or_(a, b):
    return a.engine.nand(not_(a), not_(b))


def xor_(a, b):
    eng = a.engine
    n1 = eng.nand(a, b)
    return eng.nand(eng.nand(a, n1), eng.nand(b, n1))


def nor_(a, b):
    return not_(or_(a, b))


def xnor_(a, b):
    # OR(a AND b, NOT a AND NOT b) in five gates, depth 3
    eng = a.engine
    return eng.nand(eng.nand(a, b), eng.nand(not_(a), not_(b)))
