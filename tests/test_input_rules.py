"""Each input rule has one owner, and every entry of a rule refuses a bad
input with the rule's exception type and message:

* values: ``arith._grid`` (the entries ``encode_int``, ``encode_bits``,
  ``constant_word``, ``input_word`` and ``fft.input_signal``);
* ownership: ``_Engine._own`` (``nand``, ``read_back``, ``export_ct``,
  ``wires`` and ``fft.read_signal``);
* public bits: ``fhe.check_bit`` (``constant`` of both engines,
  ``FheEngine.input_bit``, ``GswScheme.encrypt_bit`` and
  ``trivial_encrypt_bit``).
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fhefft.arith import FixedFormat, constant_word, encode_bits, encode_int, input_word, read_word
from fhefft.engine import CleartextEngine, FheEngine
from fhefft.errors import RangeError, UsageError
from fhefft.fft import input_signal, read_signal

F16 = FixedFormat(16, 8)

VALUE_ENTRIES = {
    "encode_int": lambda v: encode_int(v, F16),
    "encode_bits": lambda v: encode_bits(v, F16),
    "constant_word": lambda v: constant_word(CleartextEngine(), v, F16),
    "input_word": lambda v: input_word(CleartextEngine(), v, F16),
    "input_signal": lambda v: input_signal(CleartextEngine(), v, F16),
}
REAL_ENTRIES = [name for name in VALUE_ENTRIES if name != "input_signal"]

NOT_REAL = "fixed-point values must be real numbers: "
OUT_OF_RANGE = r"does not fit 16\.8 fixed point"
# (id, bad value, error type, message pattern, entries)
BAD_VALUES = [
    ("text", "0.5", UsageError, NOT_REAL, list(VALUE_ENTRIES)),
    ("object-text", np.array(["0.5"], dtype=object), UsageError, NOT_REAL, list(VALUE_ENTRIES)),
    ("object-none", np.array([None], dtype=object), UsageError, NOT_REAL, list(VALUE_ENTRIES)),
    ("ragged", [[1, 2], [3]], UsageError, NOT_REAL, list(VALUE_ENTRIES)),
    ("complex", 1 + 2j, UsageError, NOT_REAL, REAL_ENTRIES),
    ("object-complex", np.array([2j], dtype=object), UsageError, NOT_REAL, REAL_ENTRIES),
    ("nan", float("nan"), RangeError, OUT_OF_RANGE, list(VALUE_ENTRIES)),
    ("inf", float("inf"), RangeError, OUT_OF_RANGE, list(VALUE_ENTRIES)),
    ("-inf", float("-inf"), RangeError, OUT_OF_RANGE, list(VALUE_ENTRIES)),
    ("int-past-float64", 10**400, RangeError, OUT_OF_RANGE, list(VALUE_ENTRIES)),
    ("-int-past-float64", -10**400, RangeError, OUT_OF_RANGE, list(VALUE_ENTRIES)),
    ("past-format", 1000.0, RangeError, OUT_OF_RANGE, list(VALUE_ENTRIES)),
]


@pytest.mark.parametrize("entry, value, error, pattern", [
    pytest.param(entry, value, error, pattern, id=f"{entry}-{name}")
    for name, value, error, pattern, entries in BAD_VALUES for entry in entries])
def test_value_entries_refuse_a_bad_value_with_the_rules_error(entry, value, error, pattern):
    """Every cell gives the rule's type, and the message ``encode_bits`` (the
    codec every entry reaches) gives for the same value."""
    with pytest.raises(error) as want:
        encode_bits(value, F16)
    with pytest.raises(error, match=pattern) as got:
        VALUE_ENTRIES[entry](value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [True, np.int64(3), np.float32(0.5), Fraction(1, 2),
                                   Decimal("0.25"), np.array(1.5, dtype=object)], ids=repr)
def test_value_entries_accept_real_numbers_of_any_type(value):
    want = float(value)
    assert encode_int(value, F16) == round(want * F16.scale)
    eng = CleartextEngine()
    assert read_word(eng, input_word(eng, value, F16)) == [want]
    assert read_word(eng, constant_word(eng, value, F16)) == [want]
    assert read_signal(eng, input_signal(eng, value, F16)).tolist() == [[want]]


def test_input_signal_splits_complex_numbers_of_an_object_array():
    eng = CleartextEngine()
    values = np.array([Fraction(1, 2), 0.25j, Decimal("-1.5"), 3], dtype=object)
    assert read_signal(eng, input_signal(eng, values, F16)).tolist() == [[0.5, 0.25j, -1.5, 3]]


def _engine(kind, scheme, keys):
    return CleartextEngine() if kind == "clear" else \
        FheEngine(scheme, keys=keys, rng=np.random.default_rng(1))


@pytest.mark.parametrize("kind, entry", [
    (kind, entry) for kind in ("clear", "fhe")
    for entry in ("nand", "read_back", "export_ct", "wires", "read_signal")
    if (kind, entry) != ("clear", "export_ct")])  # the cleartext engine exports no ciphertexts
def test_ownership_entries_refuse_another_engines_input(kind, entry, exact_scheme, exact_keys):
    eng, other = (_engine(kind, exact_scheme, exact_keys) for _ in range(2))
    mine, foreign = eng.input_bit(1), other.input_bit(0)
    calls = {"nand": lambda: eng.nand(mine, foreign),
             "read_back": lambda: eng.read_back(foreign),
             "export_ct": lambda: eng.export_ct(foreign),
             "wires": lambda: eng.wires([mine, foreign]),
             "read_signal": lambda: read_signal(eng, input_signal(other, [0.5], F16))}
    with pytest.raises(UsageError, match="^cannot mix handles from different engines$"):
        calls[entry]()


BIT_ENTRIES = {
    "CleartextEngine.constant": lambda s, k, b: CleartextEngine().constant(b),
    "FheEngine.constant": lambda s, k, b: FheEngine(s, keys=k).constant(b),
    "FheEngine.input_bit": lambda s, k, b: FheEngine(s, keys=k).input_bit(b),
    "GswScheme.encrypt_bit": lambda s, k, b: s.encrypt_bit(k.public_key, b,
                                                           np.random.default_rng(1)),
    "GswScheme.trivial_encrypt_bit": lambda s, k, b: s.trivial_encrypt_bit(b),
}


@pytest.mark.parametrize("bit", [2, -1, 0.5, "1"], ids=repr)
@pytest.mark.parametrize("entry", list(BIT_ENTRIES))
def test_bit_entries_refuse_a_non_bit_with_one_message(entry, bit, exact_scheme, exact_keys):
    with pytest.raises(UsageError) as got:
        BIT_ENTRIES[entry](exact_scheme, exact_keys, bit)
    assert str(got.value) == f"bit must be 0 or 1, got {bit!r}"


def test_constant_takes_a_bit_of_any_number_type(exact_scheme, exact_keys):
    """``constant(1.0)`` is a handle of the int bit 1, which folds like it."""
    for eng in (_engine(kind, exact_scheme, exact_keys) for kind in ("clear", "fhe")):
        one = eng.constant(1.0)
        assert type(one.const) is int and one.const == 1
        x = eng.input_bit(1)
        assert eng.read_back(eng.nand(x, one)) == 0
        assert eng.read_back(eng.nand(one, eng.constant(True))) == 0
        assert eng.nand_count == 0
