import hashlib

import numpy as np
import pytest

from fhefft.errors import NoiseOverflowError, ParameterError, UsageError
from fhefft.fhe import DEFAULT_PARAMS, EXACT_PARAMS, GswScheme, SchemeParams


def test_params_derived_sizes():
    p = DEFAULT_PARAMS
    assert p.ell == 29
    assert p.n_ct == (p.n + 1) * p.ell


def test_params_reject_even_modulus():
    with pytest.raises(ParameterError):
        SchemeParams(n=4, q=2**20, noise_bound=1, depth_budget=1)


def test_params_reject_small_modulus_for_depth():
    # q < 8 * nb * (N+1)^depth
    with pytest.raises(ParameterError):
        SchemeParams(n=4, q=2**20 - 1, noise_bound=2, depth_budget=3)


def test_params_zero_noise_allows_any_depth():
    p = SchemeParams(n=1, q=127, noise_bound=0, depth_budget=10**12)
    assert p.n_ct == 14


def test_keygen_secret_structure(default_scheme, default_keys):
    p = default_scheme.params
    sk = default_keys.secret_key
    assert sk.shape == (p.n + 1,)
    assert sk[-1] == 1


def test_keygen_public_times_secret_is_small(default_scheme, default_keys):
    p = default_scheme.params
    prod = default_keys.public_key.astype(object) @ default_keys.secret_key.astype(object)
    centered = [(int(x) % p.q + p.q // 2) % p.q - p.q // 2 for x in prod]
    assert max(abs(e) for e in centered) <= p.noise_bound


def test_keygen_deterministic(default_scheme):
    k1 = default_scheme.keygen(seed=42)
    k2 = default_scheme.keygen(seed=42)
    assert np.array_equal(k1.public_key, k2.public_key)
    assert np.array_equal(k1.secret_key, k2.secret_key)
    k3 = default_scheme.keygen(seed=43)
    assert not np.array_equal(k3.public_key, k1.public_key)


def test_bit_round_trip(default_scheme, default_keys, rng):
    for bit in (0, 1):
        ct = default_scheme.encrypt_bit(default_keys.public_key, bit, rng)
        assert ct.level == 0
        assert default_scheme.decrypt_bit(default_keys.secret_key, ct) == bit


def test_bit_round_trip_randomized(default_scheme, default_keys, rng):
    bits = rng.integers(0, 2, 200)
    for b in bits:
        ct = default_scheme.encrypt_bit(default_keys.public_key, int(b), rng)
        assert default_scheme.decrypt_bit(default_keys.secret_key, ct) == b


def test_encrypt_rejects_non_bit(default_scheme, default_keys, rng):
    with pytest.raises(UsageError):
        default_scheme.encrypt_bit(default_keys.public_key, 2, rng)


def test_nand_truth_table(default_scheme, default_keys, rng):
    pk, sk = default_keys.public_key, default_keys.secret_key
    for a in (0, 1):
        for b in (0, 1):
            c1 = default_scheme.encrypt_bit(pk, a, rng)
            c2 = default_scheme.encrypt_bit(pk, b, rng)
            out = default_scheme.hom_nand(c1, c2)
            assert out.level == 1
            assert default_scheme.decrypt_bit(sk, out) == 1 - (a and b)


def test_nand_noise_growth_bounded(default_scheme, default_keys, rng):
    """Measured noise after NAND obeys (N+1) * max input noise + fresh."""
    p = default_scheme.params
    pk, sk = default_keys.public_key, default_keys.secret_key
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        c1 = default_scheme.encrypt_bit(pk, a, rng)
        c2 = default_scheme.encrypt_bit(pk, b, rng)
        n_in = max(default_scheme.measure_noise(sk, c1),
                   default_scheme.measure_noise(sk, c2))
        n_out = default_scheme.measure_noise(sk, default_scheme.hom_nand(c1, c2))
        assert n_out <= (p.n_ct + 1) * n_in + p.m * p.noise_bound


def test_depth_budget_enforced(default_scheme, default_keys, rng):
    pk = default_keys.public_key
    ct = default_scheme.encrypt_bit(pk, 1, rng)
    for _ in range(default_scheme.params.depth_budget):
        ct = default_scheme.hom_nand(ct, ct)
    with pytest.raises(NoiseOverflowError):
        default_scheme.hom_nand(ct, ct)


def test_trivial_encrypt_is_noiseless(default_scheme, default_keys):
    sk = default_keys.secret_key
    for b in (0, 1):
        ct = default_scheme.trivial_encrypt_bit(b)
        assert default_scheme.decrypt_bit(sk, ct) == b
        assert default_scheme.measure_noise(sk, ct) == 0


def test_hom_not_is_free_of_noise_growth(default_scheme, default_keys, rng):
    pk, sk = default_keys.public_key, default_keys.secret_key
    ct = default_scheme.encrypt_bit(pk, 1, rng)
    inv = default_scheme.hom_not(ct)
    assert inv.level == ct.level
    assert default_scheme.decrypt_bit(sk, inv) == 0
    assert default_scheme.measure_noise(sk, inv) == \
        default_scheme.measure_noise(sk, ct)


def test_wrong_key_raises_noise_overflow(default_scheme, default_keys, rng):
    other = default_scheme.keygen(seed=999)
    observed = 0
    for _ in range(16):
        ct = default_scheme.encrypt_bit(default_keys.public_key, 1, rng)
        try:
            default_scheme.decrypt_bit(other.secret_key, ct)
        except NoiseOverflowError:
            observed += 1
    assert observed >= 8  # garbage decryptions overwhelmingly trip the check


def test_exact_params_deep_chain(exact_scheme, exact_keys, rng):
    """With noise_bound=0 arbitrarily deep NAND chains stay exact."""
    pk, sk = exact_keys.public_key, exact_keys.secret_key
    ct = exact_scheme.encrypt_bit(pk, 0, rng)
    expected = 0
    for _ in range(64):
        ct = exact_scheme.hom_nand(ct, ct)
        expected = 1 - (expected and expected)
    assert exact_scheme.decrypt_bit(sk, ct) == expected
    assert exact_scheme.measure_noise(sk, ct) == 0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


# sha256 prefixes of the matrices test_golden_ciphertexts builds from fixed
# seeds, and its measure_noise readings; a change to key generation,
# encryption or the NAND/NOT arithmetic that moves a single bit shows here
GOLDEN = {
    "default": {"keygen": "497f8d6f47684a40", "encrypt_bit": "b4693bd593fa9d67",
                "trivial_encrypt_bit": "e71e2c9f69f65dc7", "hom_nand": "a21990cc66efd605",
                "hom_not": "abcb2d72d74e88e6", "measure_noise": [14, 17, 1208, 1255]},
    "exact": {"keygen": "35f0edbcb4aaa0b7", "encrypt_bit": "15cd3e37e48fa830",
              "trivial_encrypt_bit": "6473e19fe1b5262e", "hom_nand": "0074e9312567a7ba",
              "hom_not": "806dc6746a5515a0", "measure_noise": [0, 0, 0, 0]},
}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_golden_ciphertexts(preset):
    """Fixed seeds give bit-identical key and ciphertext matrices."""
    scheme = GswScheme({"default": DEFAULT_PARAMS, "exact": EXACT_PARAMS}[preset])
    keys = scheme.keygen(seed=11)
    rng = np.random.default_rng(12)
    zero, one = (scheme.encrypt_bit(keys.public_key, b, rng) for b in (0, 1))
    nands = [scheme.hom_nand(zero, one), scheme.hom_nand(one, one)]
    got = {
        "keygen": _digest(keys.public_key, keys.secret_key),
        "encrypt_bit": _digest(zero.matrix, one.matrix),
        "trivial_encrypt_bit": _digest(*(scheme.trivial_encrypt_bit(b).matrix for b in (0, 1))),
        "hom_nand": _digest(*(ct.matrix for ct in nands)),
        "hom_not": _digest(scheme.hom_not(one).matrix),
        "measure_noise": [scheme.measure_noise(keys.secret_key, ct)
                          for ct in (zero, one, *nands)],
    }
    assert got == GOLDEN[preset]


# (N+1) * 2^ell just under 2^52: the largest C1 @ R(C2) entries a float64 NAND allows
EDGE_PARAMS = SchemeParams(n=1, q=2**45 - 55, m=4, noise_bound=0, depth_budget=10**9)
REFERENCE_PARAMS = {"default": DEFAULT_PARAMS, "exact": EXACT_PARAMS, "edge": EDGE_PARAMS}


def _recompose_reference(p: SchemeParams, mat: np.ndarray) -> np.ndarray:
    """R(mat) = mat @ G over python ints, for an integer (r, N) matrix."""
    return mat.astype(object).reshape(mat.shape[0], p.n + 1, p.ell) @ \
        np.array([1 << j for j in range(p.ell)], dtype=object)


def _flatten_reference(p: SchemeParams, mat: np.ndarray) -> np.ndarray:
    """Flatten of an integer N x N matrix over python ints: bits of R(mat) mod q."""
    return np.array([[(int(w) % p.q >> j) & 1 for w in row for j in range(p.ell)]
                     for row in _recompose_reference(p, mat)], dtype=np.float64)


def test_edge_params_sit_at_the_exactness_limit():
    """One more bit of q, or one more lattice dimension, is rejected."""
    p = EDGE_PARAMS
    assert (p.n_ct + 1) << p.ell > 1 << 51
    for bigger in ({"q": 2**46 - 57}, {"n": 2}):
        with pytest.raises(ParameterError):
            SchemeParams(**{**vars(p), **bigger})


@pytest.mark.parametrize("preset", sorted(REFERENCE_PARAMS))
def test_hom_gates_match_integer_reference(preset):
    """hom_nand / hom_not equal Flatten(I - C1 @ C2) / Flatten(I - C) over exact integers."""
    p = REFERENCE_PARAMS[preset]
    scheme = GswScheme(p)
    rng = np.random.default_rng(31)
    shape = (p.n_ct, p.n_ct)
    mats = {"ones": np.ones(shape, dtype=np.int64), "zeros": np.zeros(shape, dtype=np.int64),
            "rand1": rng.integers(0, 2, shape), "rand2": rng.integers(0, 2, shape)}
    cts = {k: scheme.from_matrix(m) for k, m in mats.items()}
    eye = np.eye(p.n_ct, dtype=np.int64)
    for a, b in (("ones", "ones"), ("zeros", "zeros"), ("ones", "zeros"),
                 ("zeros", "ones"), ("rand1", "rand2"), ("ones", "rand1"),
                 ("rand2", "ones")):
        # the int64 product of binary matrices is exact (entries <= N)
        want = _flatten_reference(p, eye - mats[a] @ mats[b])
        assert np.array_equal(scheme.hom_nand(cts[a], cts[b]).matrix, want), (a, b)
    for a in mats:
        want = _flatten_reference(p, eye - mats[a])
        assert np.array_equal(scheme.hom_not(cts[a]).matrix, want), a


@pytest.mark.parametrize("preset", sorted(REFERENCE_PARAMS))
def test_decompose_round_trip(preset):
    p = REFERENCE_PARAMS[preset]
    scheme = GswScheme(p)
    rng = np.random.default_rng(32)
    words = rng.integers(0, p.q, (5, p.n + 1), dtype=np.int64)
    words[0, 0], words[-1, -1] = 0, p.q - 1
    bits = scheme._decompose(words)
    assert bits.shape == (5, p.n_ct)
    assert set(np.unique(bits)) <= {0.0, 1.0}
    assert bits[0, :p.ell].sum() == 0
    assert np.array_equal(bits[-1, -p.ell:], [(p.q - 1) >> j & 1 for j in range(p.ell)])
    assert np.array_equal(_recompose_reference(p, bits.astype(np.int64)).astype(np.int64), words)
    assert np.array_equal(scheme._recompose(bits), words.astype(np.float64))


# either side of (N+1) * 2^ell = 2^24, the float32 bound: N = 240 and 256 at ell = 16
BELOW_FLOAT32 = SchemeParams(n=14, q=2**16 - 15, m=4, noise_bound=0, depth_budget=10**9)
ABOVE_FLOAT32 = SchemeParams(n=15, q=2**16 - 15, m=4, noise_bound=0, depth_budget=10**9)
DTYPE_PARAMS = {"default": DEFAULT_PARAMS, "exact": EXACT_PARAMS,
                "below-2^24": BELOW_FLOAT32, "above-2^24": ABOVE_FLOAT32}


@pytest.mark.parametrize("preset", sorted(DTYPE_PARAMS))
def test_nand_words_dtype_and_integer_reference(preset):
    """float32 exactly when (N+1) * 2^ell < 2^24, and either way nand_words
    equals (G - C1 @ W2) mod q over python ints, words at 2^ell - 1 included."""
    p = DTYPE_PARAMS[preset]
    scheme = GswScheme(p)
    small = (p.n_ct + 1) << p.ell < 1 << 24
    assert small == (preset in ("exact", "below-2^24"))
    assert scheme.dtype == (np.float32 if small else np.float64)
    rng = np.random.default_rng(33)
    top = (1 << p.ell) - 1
    shape = (p.n_ct, p.n + 1)
    left = np.stack([np.full(shape, top), rng.integers(0, 1 << p.ell, shape),
                     np.where(rng.integers(0, 2, shape) == 1, top, 0)])
    right = np.stack([np.full(shape, top), np.full(shape, top), rng.integers(0, 1 << p.ell, shape)])
    gadget = np.zeros(shape, dtype=object)
    for i in range(p.n + 1):
        for j in range(p.ell):
            gadget[i * p.ell + j, i] = 1 << j
    got = scheme.nand_words(left, right)
    assert got.dtype == np.int64
    for k in range(len(left)):
        bits = np.array([[(int(w) >> j) & 1 for w in row for j in range(p.ell)]
                         for row in left[k]], dtype=object)
        want = (gadget - bits @ right[k].astype(object)) % p.q
        assert np.array_equal(got[k], want.astype(np.int64)), k
