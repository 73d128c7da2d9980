"""Bit engines: the backend abstraction every circuit is built against.

A circuit is a composition of ``engine.nand`` calls over opaque
``BitHandle`` values.  Two interchangeable engines are provided:

* ``CleartextEngine`` evaluates bits exactly in plaintext.  A handle packs
  ``batch_size`` independent evaluation lanes into one python integer, so
  one pass over a circuit evaluates it for many independent inputs (e.g.
  all trials of an experiment) while counting each gate once.
* ``FheEngine`` evaluates bits as ciphertexts of a ``GswScheme``.

Both engines fold gates where an operand is a public constant:
NAND(x, 1) = NOT x (realized without a gate: bit flip in cleartext, the
linear ciphertext complement under FHE), NAND(x, 0) = 1.  Folded gates do
not increment the NAND counter.  Because constants are public circuit
structure (e.g. twiddle bits), this mirrors the cost treatment of
constant multiplication, at the price of leaking which result bits are
forced; see README.

Decryption below the noise threshold is exact, so any circuit evaluated
on both engines yields identical bits; the cleartext engine is the
bit-exact reference, not a floating-point emulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, UsageError
from .fhe import Ciphertext, GswScheme, KeyPair


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
    """One circuit wire on the FHE engine: a ciphertext, or a tagged constant."""

    __slots__ = ("engine", "ct", "plain", "const")

    def __init__(self, engine, ct, plain, const):
        self.engine = engine
        self.ct = ct
        self.plain = plain
        self.const = const


class CleartextEngine:
    """Exact plaintext bit engine with lane packing and gate counting."""

    def __init__(self, batch_size: int = 1):
        if batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.mask = (1 << batch_size) - 1
        self.nand_count = 0
        self.max_depth = 0

    @property
    def stats(self) -> GateStats:
        return GateStats(self.nand_count, self.max_depth)

    def constant(self, bit: int) -> ClearBit:
        if bit not in (0, 1):
            raise UsageError(f"constant must be 0 or 1, got {bit!r}")
        return ClearBit(self, self.mask if bit else 0, 0, True)

    def input_bit(self, lanes: int) -> ClearBit:
        """New variable wire; ``lanes`` packs one bit per lane (0/1 if batch 1)."""
        if not 0 <= lanes <= self.mask:
            raise UsageError(f"lane value {lanes:#x} out of range for "
                             f"batch_size={self.batch_size}")
        return ClearBit(self, lanes, 0, False)

    def nand(self, a: ClearBit, b: ClearBit) -> ClearBit:
        if a.engine is not self or b.engine is not self:
            raise UsageError("cannot mix handles from different engines")
        if a.const or b.const:
            return self._fold(a, b)
        self.nand_count += 1
        depth = (a.depth if a.depth >= b.depth else b.depth) + 1
        if depth > self.max_depth:
            self.max_depth = depth
        return ClearBit(self, self.mask ^ (a.value & b.value), depth, False)

    def _fold(self, a, b):
        if a.const and b.const:
            return self.constant(0 if (a.value and b.value) else 1)
        if b.const:
            a, b = b, a
        # a is the constant: NAND(x, 0) = 1, NAND(x, 1) = NOT x (gate-free)
        if a.value == 0:
            return self.constant(1)
        return ClearBit(self, self.mask ^ b.value, b.depth, False)

    def read_back(self, h: ClearBit) -> int:
        """Packed lane values of a wire (an int in [0, 2**batch_size))."""
        if h.engine is not self:
            raise UsageError("handle belongs to a different engine")
        return h.value


class FheEngine:
    """Bit engine evaluating gates homomorphically.

    Holds the public key (enough to encrypt inputs and run circuits); give
    it the full ``KeyPair`` to enable ``read_back``.  Gates are evaluated
    one at a time, in the order the circuit driver issues them.
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

    @property
    def stats(self) -> GateStats:
        return GateStats(self.nand_count, self.max_depth)

    def constant(self, bit: int) -> FheBit:
        if bit not in (0, 1):
            raise UsageError(f"constant must be 0 or 1, got {bit!r}")
        return FheBit(self, None, bit, True)

    def input_bit(self, bit: int) -> FheBit:
        if bit not in (0, 1):
            raise UsageError(f"input bit must be 0 or 1, got {bit!r}")
        if self.public_key is None:
            raise CapabilityError("encrypting inputs needs the public key")
        ct = self.scheme.encrypt_bit(self.public_key, bit, self.rng)
        return FheBit(self, ct, None, False)

    def nand(self, a: FheBit, b: FheBit) -> FheBit:
        if a.engine is not self or b.engine is not self:
            raise UsageError("cannot mix handles from different engines")
        if a.const or b.const:
            return self._fold(a, b)
        out = self.scheme.hom_nand(a.ct, b.ct)
        self.nand_count += 1
        if out.level > self.max_depth:
            self.max_depth = out.level
        return FheBit(self, out, None, False)

    def _fold(self, a, b):
        if a.const and b.const:
            return self.constant(0 if (a.plain and b.plain) else 1)
        if b.const:
            a, b = b, a
        if a.plain == 0:
            return self.constant(1)
        return FheBit(self, self.scheme.hom_not(b.ct), None, False)

    def read_back(self, h: FheBit) -> int:
        if h.engine is not self:
            raise UsageError("handle belongs to a different engine")
        if h.const:
            return h.plain
        if self.secret_key is None:
            raise CapabilityError("read_back needs the secret key")
        return self.scheme.decrypt_bit(self.secret_key, h.ct)

    def export_ct(self, h: FheBit) -> Ciphertext:
        """Ciphertext of a wire (constants become trivial ciphertexts)."""
        if h.engine is not self:
            raise UsageError("handle belongs to a different engine")
        if h.const:
            return self.scheme.trivial_encrypt_bit(h.plain)
        return h.ct

    def import_ct(self, ct: Ciphertext) -> FheBit:
        return FheBit(self, ct, None, False)
