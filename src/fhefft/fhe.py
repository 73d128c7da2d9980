"""Leveled fully homomorphic encryption of bits with matrix ciphertexts.

The scheme is the matrix-flattening variant of LWE-based FHE (Gentry,
Sahai, Waters 2013).  A ciphertext is an N x N binary matrix over Z_q
with N = (n+1) * ceil(log2 q); the secret key s has its last coordinate
fixed to 1, and v = powers_of_2(s) satisfies  C @ v = mu * v + e (mod q)
for a bit mu and a small error vector e.  Every ciphertext is kept in
flattened form: Flatten(M) is the row-wise bit decomposition of the
words R(M) = M @ G mod q, where G is the N x (n+1) gadget matrix of
powers of two (Micciancio, Peikert 2012).  R is linear, so a NAND never
forms the N x N product C1 @ C2: it multiplies the binary C1 by the
N x (n+1) words R(C2), exactly in float64 BLAS.

Homomorphic operations, on bits only:

* ``hom_nand`` -- Flatten(I - C1 @ C2), computed as decompose(G - C1 @ R(C2))
* ``hom_not``  -- Flatten(I - C), computed as decompose(G - R(C)); no product

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
from dataclasses import dataclass

import numpy as np

from .errors import NoiseOverflowError, ParameterError

# float64 arithmetic stays exact only while every intermediate integer is
# below 2**52.  The largest is C1 @ R(C2) in hom_nand, at most N * (2^ell - 1)
# in magnitude; params validation requires (N+1) * 2^ell < 2^52.
_EXACT_BITS = 52


def _ceil_log2(q: int) -> int:
    return int(q - 1).bit_length()


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
        return _ceil_log2(self.q)

    @property
    def n_ct(self) -> int:
        """Ciphertext side length N = (n + 1) * ell."""
        return (self.n + 1) * self.ell

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ParameterError("n and m must be positive")
        if self.q < 8 or self.q % 2 == 0:
            raise ParameterError("q must be an odd integer >= 8")
        if self.noise_bound < 0 or self.depth_budget < 0:
            raise ParameterError("noise_bound and depth_budget must be >= 0")
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

    def digest(self) -> str:
        """Stable short hash identifying this parameter set."""
        text = f"{self.n},{self.q},{self.m},{self.noise_bound},{self.depth_budget}"
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


@dataclass(eq=False)
class Ciphertext:
    """Flattened N x N binary matrix encrypting one bit.

    ``matrix`` is float64 holding 0.0/1.0 entries (float keeps the
    (N x N) @ (N x (n+1)) product of ``hom_nand`` on the BLAS fast path;
    all values stay exact integers).
    ``level`` counts accumulated NAND depth; ``noise_est`` is a worst-case
    error-magnitude bound used for operand ordering and fail-fast checks,
    never for correctness.
    """

    matrix: np.ndarray
    level: int = 0
    noise_est: int = 0


class GswScheme:
    """Operations of the scheme for one fixed parameter set."""

    def __init__(self, params: SchemeParams = DEFAULT_PARAMS):
        self.params = params
        p = params
        self._pow2 = (1 << np.arange(p.ell, dtype=np.int64)).astype(np.float64)
        # G: row i*ell + j holds 2^j in column i; 2^(ell-1) < q, so G = G mod q
        self._gadget = np.kron(np.eye(p.n + 1), self._pow2[:, None])
        self._secret_powers: dict[bytes, np.ndarray] = {}
        # decryption reads gadget row j, 2^j the largest power of two <= q/2 (so > q/4)
        self._mu_row = (p.q // 2).bit_length() - 1

    # -- gadget plumbing ------------------------------------------------

    def _decompose(self, words: np.ndarray) -> np.ndarray:
        """Row-wise binary decomposition of an (r, n+1) integer matrix in [0, q)."""
        p = self.params
        octets = np.ascontiguousarray(words, dtype="<i8").view(np.uint8)
        bits = np.unpackbits(octets.reshape(-1, 8), axis=-1, count=p.ell, bitorder="little")
        return bits.reshape(words.shape[0], p.n_ct).astype(np.float64)

    def _recompose(self, mat: np.ndarray) -> np.ndarray:
        """R(M) = M @ G: the (r, n+1) integer words of an (r, N) matrix, not reduced."""
        p = self.params
        return (mat.reshape(-1, p.ell) @ self._pow2).reshape(mat.shape[0], p.n + 1)

    def flatten(self, words: np.ndarray) -> np.ndarray:
        """decompose(words mod q) for any integer-valued (r, n+1) words (exact in int64)."""
        return self._decompose(np.asarray(words, dtype="<i8") % self.params.q)

    def _powers_of_secret(self, secret_key: np.ndarray) -> np.ndarray:
        key = np.asarray(secret_key, dtype=np.int64).tobytes()
        v = self._secret_powers.get(key)
        if v is None:
            p = self.params
            # python ints: the int64 shift overflows near the parameter limit
            v = np.array([(int(s) << j) % p.q for s in secret_key for j in range(p.ell)],
                         dtype=np.float64)
            v.flags.writeable = False
            self._secret_powers[key] = v
        return v

    # -- key generation and encryption ----------------------------------

    def keygen(self, seed) -> KeyPair:
        """Generate a key pair; deterministic for a fixed seed."""
        p = self.params
        rng = np.random.default_rng(seed)
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
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        p = self.params
        r_mat = rng.integers(0, 2, (p.n_ct, p.m)).astype(np.float64)
        masked = r_mat @ public_key.astype(np.float64)
        return Ciphertext(matrix=self.flatten(masked + bit * self._gadget), level=0,
                          noise_est=p.m * p.noise_bound)

    def trivial_encrypt_bit(self, bit: int) -> Ciphertext:
        """Noiseless deterministic encoding of a public constant."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        return Ciphertext(matrix=self.flatten(bit * self._gadget), level=0, noise_est=0)

    # -- decryption ------------------------------------------------------

    def _check_level(self, ct: Ciphertext):
        if ct.level > self.params.depth_budget:
            raise NoiseOverflowError(
                f"ciphertext level {ct.level} exceeds depth budget "
                f"{self.params.depth_budget}")

    def _gadget_rows(self, secret_key: np.ndarray, ct: Ciphertext,
                     rows=slice(None)) -> list[int]:
        """x_j = mu * 2^j + e_j (mod q) for the rows paired with s[-1] = 1
        (all ell of them, or the slice ``rows``)."""
        p = self.params
        v = self._powers_of_secret(secret_key)
        block = ct.matrix[p.n * p.ell:(p.n + 1) * p.ell][rows]
        xs = np.mod(block @ v, p.q).astype(np.int64)
        return [int(x) for x in xs]

    def decrypt_bit(self, secret_key: np.ndarray, ct: Ciphertext) -> int:
        """Recover an encrypted bit; raises once noise reaches q/8."""
        bit, _ = self.decrypt_bit_with_noise(secret_key, ct)
        return bit

    def decrypt_bit_with_noise(self, secret_key, ct) -> tuple[int, int]:
        """Decrypt a bit and report the measured noise magnitude."""
        self._check_level(ct)
        j = self._mu_row
        return self._decode(self._gadget_rows(secret_key, ct, slice(j, j + 1))[0])

    def _decode(self, x: int) -> tuple[int, int]:
        """(mu, noise) of gadget row ``_mu_row``; raises once noise reaches q/8."""
        p = self.params
        if x > p.q // 2:
            x -= p.q
        scale = 1 << self._mu_row
        mu = (2 * x + scale) // (2 * scale)
        noise = abs(x - mu * scale)
        if mu not in (0, 1) or noise >= (p.q + 7) // 8:
            raise NoiseOverflowError(
                f"noise {noise} at or above decryption threshold q/8={p.q / 8:.0f}")
        return mu, noise

    def _max_residual(self, xs: list[int], mu: int) -> int:
        p = self.params
        worst = 0
        for j, x in enumerate(xs):
            e = (x - ((mu << j) % p.q)) % p.q
            if e > p.q // 2:
                e -= p.q
            worst = max(worst, abs(e))
        return worst

    def measure_noise(self, secret_key: np.ndarray, ct: Ciphertext) -> int:
        """Measured max error magnitude across the gadget rows (diagnostic)."""
        self._check_level(ct)
        xs = self._gadget_rows(secret_key, ct)
        mu, _ = self._decode(xs[self._mu_row])
        return self._max_residual(xs, mu)

    # -- homomorphic evaluation ------------------------------------------

    def hom_nand(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """NOT(b1 AND b2) as Flatten(I - C1 @ C2); level = max + 1.

        The left operand's error enters the result unscaled while the right
        one picks up a factor N, so the noisier ciphertext goes left.
        """
        p = self.params
        level = max(ct1.level, ct2.level) + 1
        if level > p.depth_budget:
            raise NoiseOverflowError(
                f"NAND at level {level} would exceed depth budget {p.depth_budget}")
        if ct2.noise_est > ct1.noise_est:
            ct1, ct2 = ct2, ct1
        words = self._gadget - ct1.matrix @ self._recompose(ct2.matrix)
        est = min(ct1.noise_est + p.n_ct * ct2.noise_est, p.q)
        return Ciphertext(matrix=self.flatten(words), level=level, noise_est=est)

    def hom_not(self, ct: Ciphertext) -> Ciphertext:
        """Complement without a ciphertext product: Flatten(I - C) = decompose(G - R(C)).

        Linear, so noise magnitude and level are unchanged.  This backs the
        engine's free simplification of NAND against a known constant 1.
        """
        return Ciphertext(matrix=self.flatten(self._gadget - self._recompose(ct.matrix)),
                          level=ct.level, noise_est=ct.noise_est)
