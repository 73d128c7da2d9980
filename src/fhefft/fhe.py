"""Leveled fully homomorphic encryption of bits with matrix ciphertexts.

The scheme is the matrix-flattening variant of LWE-based FHE (Gentry,
Sahai, Waters 2013).  A ciphertext is an N x N binary matrix C over Z_q
with N = (n+1) * ceil(log2 q); the secret key s has its last coordinate
fixed to 1, and v = powers_of_2(s) satisfies  C @ v = mu * v + e (mod q)
for a bit mu and a small error vector e.  Every ciphertext is flattened:
C is the row-wise bit decomposition of its words W = R(C) = C @ G, where
G is the N x (n+1) gadget matrix of powers of two (Micciancio, Peikert
2012).  W determines C, so a ``Ciphertext`` stores only the N x (n+1)
int64 words, and the bits of C are produced where a product reads them.
R is linear, so a NAND never forms the N x N product C1 @ C2: it
multiplies the binary C1 by the words W2 in BLAS.  Every entry of that
product, every partial sum of it in any summation order, and G - C1 @ W2
are integers below (N+1) * 2^ell in magnitude, so the product is exact in
any float type that holds those integers: ``GswScheme.dtype`` is float32
when (N+1) * 2^ell < 2^24 (the ``exact`` preset: 52 * 2^17 < 2^24), else
float64 (the ``default`` preset), decided from the parameters alone.
Decryption's product, decomposed bits times powers of the secret below
q < 2^ell, is bounded by the same rule; ``_decode`` reads bits and noise
from it, for a stack (``decrypt_rows``) or for one ciphertext
(``decrypt_bit_with_noise``, which raises where it rejects).  ``check_bit``
is the public-bit rule of ``encrypt_bit``, ``trivial_encrypt_bit``,
``FheEngine.input_bit``, and both engines' ``constant`` and ``input_wires``
(each lane bit, the first refused in C order raising, as a Python scalar;
ragged lane bits raise its error too).  ``seeded_rng`` is the seed rule.

Homomorphic operations, on bits only, as word arithmetic:

* ``nand_words`` -- the words of Flatten(I - C1 @ C2), (G - C1 @ W2) mod q,
  for a stack of operand pairs; ``hom_nand`` is one pair
* ``not_words``  -- the words of Flatten(I - C), (G - W) mod q; no product;
  ``hom_not`` is one ciphertext

Noise model: a fresh ciphertext carries error at most m * noise_bound;
one NAND maps errors (e1, e2) to at most |e1| + N * |e2|, so worst-case
noise after depth d is below (N + 1)**d times the fresh noise.  The
``SchemeParams`` invariant ``q > 8 * noise_bound * (N + 1)**depth_budget``
guarantees decryption below depth_budget.  With ``noise_bound = 0`` the
scheme is exact at any depth (and, like all parameter sets this package
ships, provides no cryptographic security; see README).
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import NoiseOverflowError, ParameterError, UsageError, _is_count

# float64 arithmetic stays exact only while every intermediate integer is
# below 2**52.  The largest is C1 @ W2 in nand_words, at most N * (2^ell - 1)
# in magnitude; params validation requires (N+1) * 2^ell < 2^52.
_EXACT_BITS = 52
# float32 holds every integer below 2**24 exactly; parameters with
# (N+1) * 2^ell below it multiply in float32
_EXACT_BITS_FLOAT32 = 24


def check_bit(bit) -> int:
    """``bit`` as an int: the public-bit rule, which refuses all but the
    real numbers 0 and 1 (an array, or a complex number, is no bit)."""
    if isinstance(bit, np.ndarray) or isinstance(bit, numbers.Complex) and \
            not isinstance(bit, numbers.Real) or bit not in (0, 1):
        raise UsageError(f"bit must be 0 or 1, got {bit!r}")
    return int(bit)


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, the seed rule of ``keygen``, the harness
    and ``fhefft encrypt``: what numpy refuses raises ``UsageError``."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad seed {seed!r}: {exc}") from None


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of the lattice scheme.

    n            lattice dimension
    q            ciphertext modulus (odd)
    m            number of LWE samples in the public key
    noise_bound  max initial error magnitude per public-key sample
    depth_budget max NAND depth guaranteed decryptable
    """

    n: int
    q: int
    m: int = 32
    noise_bound: int = 2
    depth_budget: int = 3

    @property
    def ell(self) -> int:
        """Bits per Z_q value, ceil(log2 q)."""
        return (self.q - 1).bit_length()

    @property
    def n_ct(self) -> int:
        """Ciphertext side length N = (n + 1) * ell."""
        return (self.n + 1) * self.ell

    def __post_init__(self):
        if not (_is_count(self.n) and _is_count(self.m)):
            raise ParameterError("n and m must be positive integers")
        if not _is_count(self.q, 8) or self.q % 2 == 0:
            raise ParameterError("q must be an odd integer >= 8")
        if not (_is_count(self.noise_bound, 0) and _is_count(self.depth_budget, 0)):
            raise ParameterError("noise_bound and depth_budget must be integers >= 0")
        for field in fields(self):  # as Python ints: numpy's would wrap in the limits below
            object.__setattr__(self, field.name, int(getattr(self, field.name)))
        # exactness limits of the float64 arithmetic backing this implementation
        if (self.n_ct + 1) << self.ell >= 1 << _EXACT_BITS:
            raise ParameterError(
                f"q={self.q} with n={self.n} exceeds the exact-arithmetic "
                f"limit (need (N+1)*2^ell < 2^{_EXACT_BITS})")
        if self.m * self.q >= 1 << _EXACT_BITS:
            raise ParameterError("m * q too large for exact encryption arithmetic")
        # decryption-correctness margin
        if self.noise_bound > 0:
            margin_bits = math.log2(8 * self.noise_bound) + \
                self.depth_budget * math.log2(self.n_ct + 1)
            if margin_bits >= 200 or \
                    self.q <= 8 * self.noise_bound * (self.n_ct + 1) ** self.depth_budget:
                raise ParameterError(
                    f"q={self.q} too small for noise_bound={self.noise_bound} at "
                    f"depth_budget={self.depth_budget}: need q > 8*nb*(N+1)^depth")

    def check_nand_level(self, level: int):
        """Refuse a NAND whose result would sit at ``level``, past the depth budget."""
        if level > self.depth_budget:
            raise NoiseOverflowError(
                f"NAND at level {level} would exceed depth budget {self.depth_budget}")

    def nand_noise(self, a, b):
        """(swap, estimate) of a NAND of operands with noise estimates a and
        b: the left operand's error enters the result unscaled and the right
        one's N times, so the noisier goes left (``swap`` where b is), and
        the estimate is min(max + N * min, q).  Plain arithmetic, the same
        for one gate's Python ints and a plan level's int64 arrays."""
        swap = b > a
        est = a + b + (self.n_ct - 1) * (b - (b - a) * swap)  # max + N * min
        return swap, est - (est - self.q) * (est > self.q)

    def digest(self) -> str:
        """Stable short hash identifying this parameter set."""
        text = ",".join(map(str, astuple(self)))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# Defaults sized so a NAND multiplies a 261 x 261 binary matrix by 261 x 9
# gadget words (~0.2 ms) and the params invariant admits depth 3, enough for
# every derived logic gate.
DEFAULT_PARAMS = SchemeParams(n=8, q=2**29 - 3, m=32, noise_bound=2, depth_budget=3)

# Noise-free toy parameters: every ciphertext decrypts exactly at any depth,
# which is what makes deep circuits (word adders, multipliers, whole FFTs)
# runnable at desk scale.  Zero noise also means zero security.
EXACT_PARAMS = SchemeParams(n=2, q=2**16 + 1, m=8, noise_bound=0, depth_budget=10**9)


@dataclass(frozen=True)
class KeyPair:
    """Public m x (n+1) matrix A and secret (n+1)-vector s with s[-1] = 1.

    By construction A @ s mod q is the sample error vector, every entry
    at most noise_bound in magnitude.
    """

    public_key: np.ndarray
    secret_key: np.ndarray


# word_bits and bit_words go through all 64 bits of every word: one flat
# unpackbits or packbits, where numpy's call along an axis costs about 16 ns
# per word whatever its length
WORD_BITS_BYTES = 64  # bytes of their intermediate array per word


def word_bits(words: np.ndarray, ell: int) -> np.ndarray:
    """uint8 bit decomposition, ``ell`` bits per word, of an (..., r, k) integer
    array with entries in [0, 2^ell): shape (..., r, k * ell), LSB first."""
    octets = np.ascontiguousarray(words, dtype="<i8").view(np.uint8)
    bits = np.unpackbits(octets, bitorder="little").reshape(*words.shape, 64)[..., :ell]
    return bits.reshape(*words.shape[:-1], words.shape[-1] * ell)


def bit_words(bits: np.ndarray, ell: int) -> np.ndarray:
    """int64 words of an (..., r, k * ell) 0/1 array, ``ell`` bits per word LSB
    first: the inverse of ``word_bits``, in integers (ell < 52)."""
    *lead, cols = bits.shape
    padded = np.zeros((*lead, cols // ell, 64), np.uint8)
    padded[..., :ell] = bits.reshape(*lead, cols // ell, ell)
    return np.packbits(padded, bitorder="little").view("<i8").reshape(padded.shape[:-1])


@dataclass(eq=False)
class Ciphertext:
    """One encrypted bit, stored as the words W = R(C) = C @ G of its
    flattened N x N binary matrix C.

    ``words`` is an N x (n+1) int64 array with entries in [0, 2^ell): those
    the scheme makes are reduced mod q, and those read from a container
    are the unreduced words of whatever binary matrix it held, so
    ``matrix`` gives every such matrix back bit for bit.
    ``level`` counts accumulated NAND depth; ``noise_est`` is a worst-case
    error-magnitude bound used for operand ordering and fail-fast checks,
    never for correctness.
    """

    words: np.ndarray
    level: int = 0
    noise_est: int = 0

    @property
    def matrix(self) -> np.ndarray:
        """The N x N binary matrix C (uint8), decomposed from the words."""
        rows, cols = self.words.shape
        bits = word_bits(self.words, rows // cols)
        bits.flags.writeable = False
        return bits


class GswScheme:
    """Operations of the scheme for one fixed parameter set.

    ``dtype`` is the float type of the products of NAND and decryption:
    float32 when (N+1) * 2^ell < 2^24, else float64 (see the module
    docstring); both are exact, so the choice changes no bit.
    """

    def __init__(self, params: SchemeParams = DEFAULT_PARAMS):
        self.params = p = params
        # SchemeParams computes these on every access; the hot paths read them here
        self.ell, self.n_ct = p.ell, p.n_ct
        self.dtype = np.dtype(np.float32 if (p.n_ct + 1) << p.ell < 1 << _EXACT_BITS_FLOAT32
                              else np.float64)
        self.fresh_noise = p.m * p.noise_bound  # noise estimate of a fresh encryption
        # G: row i*ell + j holds 2^j in column i; 2^(ell-1) < q, so G = G mod q
        self._gadget = np.kron(np.eye(p.n + 1, dtype=np.int64),
                               (1 << np.arange(self.ell, dtype=np.int64))[:, None])
        self._gadget_f = self._gadget.astype(self.dtype)
        self._secret_powers: dict[bytes, np.ndarray] = {}
        # decryption reads gadget row j, 2^j the largest power of two <= q/2 (so > q/4),
        # of the block of rows paired with s[-1] = 1: ciphertext row ``mu_index``
        self._mu_row = (p.q // 2).bit_length() - 1
        self.mu_index = p.n * self.ell + self._mu_row
        # nand_words reads each word's ceil(ell/8) low bytes, all their bits
        self._low_bytes = np.dtype({"names": ["low"], "formats": [f"V{-(-self.ell // 8)}"],
                                    "offsets": [0], "itemsize": 8})
        self._byte_bits = 8 * self._low_bytes["low"].itemsize
        self.nand_bytes = self.dtype.itemsize * self.n_ct * (p.n + 1) * self._byte_bits

    # -- gadget plumbing ------------------------------------------------

    def _decompose(self, words: np.ndarray) -> np.ndarray:
        """``dtype`` bit decomposition of (..., r, n+1) integer words in [0, 2^ell)."""
        return word_bits(words, self.ell).astype(self.dtype)

    def _recompose(self, mat: np.ndarray) -> np.ndarray:
        """R(M) = M @ G: the (..., r, n+1) int64 words of an (..., r, N) binary
        matrix, not reduced."""
        return bit_words(mat, self.ell)

    def flatten(self, words: np.ndarray) -> np.ndarray:
        """decompose(words mod q) for any integer-valued (r, n+1) words (exact in int64).

        Evaluation never needs it: ciphertexts keep their words.
        """
        return self._decompose(np.asarray(words, dtype="<i8") % self.params.q)

    def from_matrix(self, matrix: np.ndarray, level: int = 0,
                    noise_est: int = 0) -> Ciphertext:
        """Ciphertext of an N x N binary matrix (its words R(C), not reduced mod q)."""
        return Ciphertext(self._recompose(matrix), level, noise_est)

    def _powers_of_secret(self, secret_key: np.ndarray) -> np.ndarray:
        key = np.asarray(secret_key, dtype=np.int64).tobytes()
        v = self._secret_powers.get(key)
        if v is None:
            p = self.params
            # python ints: the int64 shift overflows near the parameter limit
            v = np.array([(int(s) << j) % p.q for s in secret_key for j in range(self.ell)],
                         dtype=self.dtype)
            v.flags.writeable = False
            self._secret_powers[key] = v
        return v

    # -- key generation and encryption ----------------------------------

    def keygen(self, seed) -> KeyPair:
        """Generate a key pair; deterministic for a fixed seed."""
        p = self.params
        rng = seeded_rng(seed)
        t = rng.integers(0, p.q, p.n, dtype=np.int64)
        b_mat = rng.integers(0, p.q, (p.m, p.n), dtype=np.int64)
        err = rng.integers(-p.noise_bound, p.noise_bound + 1, p.m, dtype=np.int64)
        # entries reach q^2, so take the product over python ints
        body = b_mat.astype(object) @ t.astype(object)
        b_col = np.array([(int(x) + int(e)) % p.q for x, e in zip(body, err)],
                         dtype=np.int64)
        public = np.concatenate([b_mat, b_col[:, None]], axis=1)
        secret = np.concatenate([(p.q - t) % p.q, np.array([1], dtype=np.int64)])
        return KeyPair(public_key=public, secret_key=secret)

    def encrypt_bit(self, public_key: np.ndarray, bit: int, rng) -> Ciphertext:
        words = self.encrypt_words(public_key, np.array([check_bit(bit)]), rng)[0]
        return Ciphertext(words, level=0, noise_est=self.fresh_noise)

    def encrypt_words(self, public_key: np.ndarray, bits: np.ndarray, rng) -> np.ndarray:
        """(k, N, n+1) words of fresh encryptions of k bits (0/1): one draw of
        the k binary N x m masks R, in the order of k ``encrypt_bit`` calls,
        and one product R @ A."""
        p = self.params
        k = len(bits)
        r_mat = rng.integers(0, 2, (k * self.n_ct, p.m)).astype(np.float64)
        # entries of the float64 product stay below m * q < 2^52, so it is exact
        words = (r_mat @ public_key.astype(np.float64)).astype(np.int64)
        words = words.reshape(k, self.n_ct, p.n + 1)
        words += np.asarray(bits, dtype=np.int64)[:, None, None] * self._gadget
        words %= p.q
        return words

    def trivial_encrypt_bit(self, bit: int) -> Ciphertext:
        """Noiseless deterministic encoding of a public constant."""
        return Ciphertext(check_bit(bit) * self._gadget, level=0, noise_est=0)

    # -- decryption ------------------------------------------------------

    def _gadget_values(self, secret_key: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(decomposed rows) @ v mod q for (..., n+1) words of ciphertext rows:
        row n*ell + j, paired with s[-1] = 1, gives x_j = mu * 2^j + e_j (mod q)."""
        v = self._powers_of_secret(secret_key)
        return (self._decompose(rows) @ v).astype(np.int64) % self.params.q

    def decrypt_bit(self, secret_key: np.ndarray, ct: Ciphertext) -> int:
        """Recover an encrypted bit; raises once noise reaches q/8."""
        return self.decrypt_bit_with_noise(secret_key, ct)[0]

    def decrypt_bit_with_noise(self, secret_key, ct) -> tuple[int, int]:
        """Decrypt a bit and report the measured noise magnitude of its row
        ``mu_index``; raises past the depth budget or once noise reaches q/8."""
        if ct.level > self.params.depth_budget:
            raise NoiseOverflowError(f"ciphertext level {ct.level} exceeds depth budget "
                                     f"{self.params.depth_budget}")
        x = self._gadget_values(secret_key, ct.words[self.mu_index])
        mu, noise, valid = self._decode(int(x))
        if not valid:
            raise NoiseOverflowError(f"noise {noise} at or above decryption threshold "
                                     f"q/8={self.params.q / 8:.0f}")
        return mu, noise

    def decrypt_rows(self, secret_key: np.ndarray, rows: np.ndarray, levels) -> np.ndarray:
        """Bits of k ciphertexts from the (k, n+1) words of their row
        ``mu_index`` and their levels, in one product: int64, -1 for each
        ciphertext ``decrypt_bit`` rejects (level past the budget, or noise
        at or above q/8)."""
        mu, _, valid = self._decode(self._gadget_values(secret_key, rows))
        return np.where(valid & (np.asarray(levels) <= self.params.depth_budget), mu, -1)

    def _decode(self, x):
        """(mu, noise, valid) of gadget row ``_mu_row`` values x in [0, q), a
        python int or an int64 array alike; not valid where mu is not a bit
        or the noise reaches q/8."""
        q = self.params.q
        x = x - q * (x > q // 2)
        scale = 1 << self._mu_row
        mu = (2 * x + scale) // (2 * scale)
        noise = abs(x - mu * scale)
        return mu, noise, ((mu == 0) | (mu == 1)) & (noise < (q + 7) // 8)

    def measure_noise(self, secret_key: np.ndarray, ct: Ciphertext) -> int:
        """Measured max error magnitude across the gadget rows paired with
        s[-1] = 1, the centred (x_j - mu * 2^j) mod q (diagnostic)."""
        mu, _ = self.decrypt_bit_with_noise(secret_key, ct)
        n, ell, q = self.params.n, self.ell, self.params.q
        xs = self._gadget_values(secret_key, ct.words[n * ell:(n + 1) * ell])
        err = (xs - (mu << np.arange(ell, dtype=np.int64)) % q) % q
        return int(np.abs(err - q * (err > q // 2)).max())

    # -- homomorphic evaluation ------------------------------------------

    def nand_words(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Words of Flatten(I - C1 @ C2) for (..., N, n+1) operand words of
        any leading shape, which the result keeps.

        Only the left operand is decomposed, to bits of ``dtype``; the
        product C1 @ W2 and G - C1 @ W2 are exact in it (see the module
        docstring), and the result is (G - C1 @ W2) mod q in int64, never
        decomposed.  The bits are those of every word's ceil(ell/8) low
        bytes, one flat ``unpackbits`` (``nand_bytes`` per operand pair):
        C1 with a zero column for each bit at or above ell, which meets a
        zero row spread into W2.
        """
        *lead, rows, cols = left.shape
        low = np.ascontiguousarray(left, "<i8").view(self._low_bytes)["low"]  # a strided view
        bits = np.unpackbits(np.ascontiguousarray(low).view(np.uint8), bitorder="little")
        bits = bits.reshape(*lead, rows, cols * self._byte_bits).astype(self.dtype)
        spread = np.zeros((*lead, cols, self._byte_bits, cols), self.dtype)
        spread[..., :self.ell, :] = right.reshape(*lead, cols, self.ell, cols)
        prod = bits @ spread.reshape(*lead, cols * self._byte_bits, cols)
        words = np.subtract(self._gadget_f, prod, out=prod).astype(np.int64)
        q = self.params.q
        words -= words // q * q  # mod q: numpy divides an int64 by a scalar faster than %
        return words

    def not_words(self, words: np.ndarray) -> np.ndarray:
        """Words of Flatten(I - C) for (..., N, n+1) words of any leading
        shape: (G - W) mod q."""
        return (self._gadget - words) % self.params.q

    def hom_nand(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """NOT(b1 AND b2) as Flatten(I - C1 @ C2); level = max + 1, and the
        noisier ciphertext goes left (``SchemeParams.nand_noise``)."""
        level = max(ct1.level, ct2.level) + 1
        self.params.check_nand_level(level)
        swap, est = self.params.nand_noise(ct1.noise_est, ct2.noise_est)
        if swap:
            ct1, ct2 = ct2, ct1
        return Ciphertext(self.nand_words(ct1.words, ct2.words), level=level, noise_est=est)

    def hom_not(self, ct: Ciphertext) -> Ciphertext:
        """Complement without a ciphertext product: Flatten(I - C), words (G - W) mod q.

        Linear, so noise magnitude and level are unchanged.  This backs the
        engine's free simplification of NAND against a known constant 1.
        """
        return Ciphertext(self.not_words(ct.words), level=ct.level, noise_est=ct.noise_est)
