"""Each input rule has one owner, and every entry of a rule refuses a bad
input with the rule's exception type and message:

* values: ``arith._grid`` (the entries ``encode_int``, ``encode_bits``,
  ``constant_word``, ``input_word`` and ``fft.input_signal``);
* ownership: ``_Engine._own`` (``nand``, ``read_back``, ``export_ct``,
  ``wires``, ``fft.read_signal`` and the word ops' gate builder, which
  folds constants without ``nand``);
* public bits: ``fhe.check_bit`` (``constant`` of both engines,
  ``FheEngine.input_bit``, ``GswScheme.encrypt_bit`` and
  ``trivial_encrypt_bit``, and every lane bit of both engines'
  ``input_wires``, ragged nesting included);
* signal shapes: ``fft._sides`` (``SignalBuffer``, the plan compiler and
  ``fft.transform_plan``, both harness experiments, the EFT1 header and
  text metadata readers, and ``verify``'s point count);
* integer parameters: ``errors._is_count`` and ``errors._is_pow2``
  (``FixedFormat``, ``CleartextEngine``'s batch size, ``SchemeParams``,
  ``ErrorParams``, ``GateCostModel``, the harness counts and
  ``reference_fft``), each entry with its own error type;
* file fields: parameter files, key files and EFT1 headers hand each
  field to the rule of its record, with no ``int()`` first;
* seeds: ``fhe.seeded_rng`` (``GswScheme.keygen``, both harness
  experiments and ``fhefft encrypt``);
* 2D images: ``arith._reals``, the real-number step of the value rule
  (``run_2d_experiment``'s images).
"""

import json
import re
import struct
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fhefft import fft, fileio
from fhefft.arith import (FixedFormat, add, constant_word, encode_bits, encode_int, input_word,
                          read_word)
from fhefft.cli import main
from fhefft.engine import CleartextEngine, FheEngine
from fhefft.error_model import ErrorParams, GateCostModel
from fhefft.errors import CapabilityError, ParameterError, ParseError, RangeError, UsageError
from fhefft.fft import input_signal, read_signal
from fhefft.fhe import DEFAULT_PARAMS, EXACT_PARAMS, GswScheme, SchemeParams
from fhefft.harness import reference_fft, run_1d_experiment, run_2d_experiment
from fhefft.plan import Compiler

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


@pytest.mark.parametrize("value", [np.array([1.5]), [1.5], np.zeros((2, 2)), np.array([])],
                         ids=repr)
def test_encode_int_refuses_anything_but_one_value(value):
    with pytest.raises(UsageError, match="^encode_int takes one value, got an array of shape"):
        encode_int(value, F16)


def test_encode_int_takes_a_0d_array():
    assert encode_int(np.array(1.5), F16) == encode_int(np.float32(1.5), F16) == 384


def test_input_signal_splits_complex_numbers_of_an_object_array():
    eng = CleartextEngine()
    values = np.array([Fraction(1, 2), 0.25j, Decimal("-1.5"), 3], dtype=object)
    assert read_signal(eng, input_signal(eng, values, F16)).tolist() == [[0.5, 0.25j, -1.5, 3]]


def _engine(kind, scheme, keys):
    return CleartextEngine() if kind == "clear" else \
        FheEngine(scheme, keys=keys, rng=np.random.default_rng(1))


@pytest.mark.parametrize("kind, entry", [
    (kind, entry) for kind in ("clear", "fhe")
    for entry in ("nand", "read_back", "export_ct", "wires", "read_signal", "add")
    if (kind, entry) != ("clear", "export_ct")])  # the cleartext engine exports no ciphertexts
def test_ownership_entries_refuse_another_engines_input(kind, entry, exact_scheme, exact_keys):
    eng, other = (_engine(kind, exact_scheme, exact_keys) for _ in range(2))
    mine, foreign = eng.input_bit(1), other.input_bit(0)
    calls = {"nand": lambda: eng.nand(mine, foreign),
             "read_back": lambda: eng.read_back(foreign),
             "export_ct": lambda: eng.export_ct(foreign),
             "wires": lambda: eng.wires([mine, foreign]),
             "read_signal": lambda: read_signal(eng, input_signal(other, [0.5], F16)),
             # a foreign constant operand, which the gate builder folds
             "add": lambda: add(input_word(eng, 0.5, F16), constant_word(other, 0.25, F16))}
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


# each lane bit of an array, which holds no arrays
LANE_BIT_ENTRIES = {
    "CleartextEngine.input_wires": lambda s, k, b: CleartextEngine().input_wires([[1], [b]]),
    "FheEngine.input_wires": lambda s, k, b: FheEngine(s, keys=k).input_wires([[1], [b]]),
}


@pytest.mark.parametrize("entry, bit", [
    pytest.param(entry, bit, id=f"{entry}-{bit!r}")
    for bit in (2, -1, 0.5, "1", np.array([1, 0]))
    for entry in [*BIT_ENTRIES, *(LANE_BIT_ENTRIES if np.ndim(bit) == 0 else ())]])
def test_bit_entries_refuse_a_non_bit_with_one_message(entry, bit, exact_scheme, exact_keys):
    with pytest.raises(UsageError) as got:
        {**BIT_ENTRIES, **LANE_BIT_ENTRIES}[entry](exact_scheme, exact_keys, bit)
    assert str(got.value) == f"bit must be 0 or 1, got {bit!r}"


def test_input_wires_name_the_first_bad_lane_bit_as_a_python_scalar(exact_scheme, exact_keys):
    """An array's entry is named as ``check_bit`` names the Python scalar,
    and a keyless engine refuses a bad first bit before the missing key."""
    bits = np.array([[1], [0], [2], [3]], dtype=np.int64)
    for eng in (CleartextEngine(), FheEngine(exact_scheme, keys=exact_keys)):
        with pytest.raises(UsageError, match=r"^bit must be 0 or 1, got 2$"):
            eng.input_wires(bits)
    with pytest.raises(UsageError, match=r"^bit must be 0 or 1, got 0\.5$"):
        FheEngine(exact_scheme).input_wires([[0.5], [1]])


@pytest.mark.parametrize("bit", [1 + 0j, 0j, np.complex128(1), np.complex64(0)], ids=repr)
def test_bit_entries_refuse_complex_bits(bit, exact_scheme, exact_keys):
    """A complex bit may equal 0 or 1 but is no bit (unchecked, ``int`` would
    raise an untyped ``TypeError``); a lane array of them names its first
    entry."""
    for entry in BIT_ENTRIES.values():
        with pytest.raises(UsageError, match=r"^bit must be 0 or 1, got ") as got:
            entry(exact_scheme, exact_keys, bit)
        assert str(got.value) == f"bit must be 0 or 1, got {bit!r}"
    for entry in LANE_BIT_ENTRIES.values():
        with pytest.raises(UsageError, match=r"^bit must be 0 or 1, got \(1\+0j\)$"):
            entry(exact_scheme, exact_keys, bit)


@pytest.mark.parametrize("bit", [1 + 0j, np.complex128(0), np.array(1), np.int64(2), 0.5],
                         ids=repr)
def test_input_wires_refuse_each_entry_of_an_object_array(bit, exact_scheme, exact_keys):
    """An object array's entries are refused one by one, the first in C order
    raising as a Python scalar (unchecked, a complex entry equal to 1 raised
    an untyped ``TypeError``).  A keyless engine raises for its missing key,
    as its per-bit loop does at the first bit, which is a bit."""
    bits = np.array([[1], [0], [None], [1]], dtype=object)
    bits[2, 0] = bit
    name = repr(bit.item() if isinstance(bit, np.generic) else bit)
    for eng in (CleartextEngine(), FheEngine(exact_scheme, keys=exact_keys)):
        with pytest.raises(UsageError) as got:
            eng.input_wires(bits)
        assert str(got.value) == f"bit must be 0 or 1, got {name}"
    with pytest.raises(CapabilityError, match="^encrypting inputs needs the public key$"):
        FheEngine(exact_scheme).input_wires(bits)


def test_input_wires_take_an_object_array_of_bits(exact_scheme, exact_keys):
    """An object array of bits of any number type gives the wires of its int bits."""
    bits = np.array([[True], [np.int64(0)], [1.0], [Fraction(1)], [Decimal(0)]], dtype=object)
    ints = np.array([[1], [0], [1], [1], [0]], dtype=np.uint8)
    assert np.array_equal(CleartextEngine().input_wires(bits), CleartextEngine().input_wires(ints))
    eng = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(1))
    assert eng.read_wires(eng.input_wires(bits)).tolist() == ints.tolist()


def test_input_wires_refuse_ragged_lane_bits(exact_scheme, exact_keys):
    """Ragged nesting is no array of bits (unchecked, numpy raises an untyped
    ``ValueError``), refused before a keyless engine's missing key."""
    ragged = [[1], [1, 0]]
    for eng in (CleartextEngine(), FheEngine(exact_scheme, keys=exact_keys),
                FheEngine(exact_scheme)):
        with pytest.raises(UsageError, match=r"^bit must be 0 or 1, got \[\[1\], \[1, 0\]\]$"):
            eng.input_wires(ragged)


@pytest.mark.parametrize("lanes", [0.5, "1", np.array([1, 0]), np.array(1)], ids=repr)
def test_cleartext_input_bit_refuses_a_lane_value_that_is_not_an_integer(lanes):
    with pytest.raises(UsageError, match="^lane value must be an integer, got "):
        CleartextEngine().input_bit(lanes)


def test_cleartext_input_bit_keeps_its_lane_mask_rule():
    with pytest.raises(UsageError, match=r"^lane value 0x2 out of range for batch_size=1$"):
        CleartextEngine().input_bit(2)
    eng = CleartextEngine(batch_size=3)
    x = eng.input_bit(np.int64(5))
    assert type(x.value) is int and eng.read_back(eng.nand(x, eng.input_bit(7))) == 2


def test_constant_takes_a_bit_of_any_number_type(exact_scheme, exact_keys):
    """``constant(1.0)`` is a handle of the int bit 1, which folds like it."""
    for eng in (_engine(kind, exact_scheme, exact_keys) for kind in ("clear", "fhe")):
        one = eng.constant(1.0)
        assert type(one.const) is int and one.const == 1
        x = eng.input_bit(1)
        assert eng.read_back(eng.nand(x, one)) == 0
        assert eng.read_back(eng.nand(one, eng.constant(True))) == 0
        assert eng.nand_count == 0


SHAPE_RULE = r"signal dims .* must be a power of two M or a pair of them"
BAD_DIMS = [(2, 2, 2), (8,), [4, 4], 6, (4, 3), (2.0, 2), True, 0]


def _meta(eng):
    return eng.wire_meta(input_signal(eng, np.zeros(16), F16).wires)


def _plan(dims):
    eng = CleartextEngine()
    return fft._compile(Compiler(eng.params, F16.total_bits, 1 << 20, _meta(eng)), F16, dims)


def _transform_plan(dims):
    eng = CleartextEngine()
    return fft.transform_plan(eng, F16, dims, _meta(eng))


# entries of dims held in memory, each with 16 points where it takes values
SHAPE_ENTRIES = {
    "SignalBuffer": lambda dims: input_signal(CleartextEngine(), np.zeros(16), F16, dims=dims),
    "fft._compile": _plan,
    # the rule runs before dims go into the plan key, where [4, 4] is unhashable
    "fft.transform_plan": _transform_plan,
    # a length M is the one-row image (1, M): no pair is a length
    "run_1d_experiment": lambda dims: run_1d_experiment(dims, F16, trials=1),
    "run_2d_experiment": lambda dims: run_2d_experiment(1, dims, F16),
}


# an image shape may be any sequence, as numpy's are: run_2d_experiment
# takes [4, 4] (test_shape_entries_take_numpy_integers)
@pytest.mark.parametrize("entry, dims", [
    pytest.param(entry, dims, id=f"{entry}-{dims!r}") for dims in BAD_DIMS
    for entry in SHAPE_ENTRIES if (entry, dims) != ("run_2d_experiment", [4, 4])])
def test_shape_entries_refuse_bad_dims_with_the_rules_error(entry, dims):
    with pytest.raises(UsageError, match=SHAPE_RULE):
        SHAPE_ENTRIES[entry](dims)


def test_shape_entries_take_numpy_integers():
    dims = (np.int64(4), 4)
    assert SHAPE_ENTRIES["SignalBuffer"](dims).dims == (4, 4)
    assert all(type(d) is int for d in SHAPE_ENTRIES["SignalBuffer"](dims).dims)
    assert SHAPE_ENTRIES["SignalBuffer"](np.int64(16)).dims == 16
    assert [s[::2] for s in _plan(dims).stages] == [s[::2] for s in _plan((4, 4)).stages]
    assert _transform_plan(dims) is _transform_plan((4, 4))
    assert run_2d_experiment(1, dims, F16).size == (4, 4)
    assert run_2d_experiment(1, [4, 4], F16).size == (4, 4)
    assert run_1d_experiment(np.int64(4), F16, trials=1).size == 4


def _container(path, **fields):
    """An EFT1 file on the exact preset whose header holds ``fields`` over a
    valid 16.8 one of two points, and whose payload is zero ciphertexts.
    Unless given, the levels and noise hold a 0 per wire of the points and
    width that ``int()`` reads from the fields."""
    header = {"params": fileio.params_to_dict(EXACT_PARAMS),
              "params_digest": EXACT_PARAMS.digest(),
              "fixed_format": {"total_bits": 16, "frac_bits": 8},
              "dims": 2, "points": 2, "ct_side": EXACT_PARAMS.n_ct, **fields}
    wires = int(header["points"]) * 2 * int(header["fixed_format"]["total_bits"])
    header = {"levels": [0] * wires, "noise": [0] * wires, **header}
    head = json.dumps(header).encode()
    payload = bytes(wires * -(-EXACT_PARAMS.n_ct ** 2 // 8))
    path.write_bytes(fileio.MAGIC + struct.pack("<II", fileio.CONTAINER_VERSION, len(head))
                     + head + payload)
    return path


def _header(path, dims, points):
    return fileio.read_ciphertext_header(_container(path, dims=dims, points=points))


@pytest.mark.parametrize("dims, points", [([2, 2, 2], 8), ([8], 8), (6, 6), ([4, 3], 12),
                                          (0, 0)], ids=repr)
def test_container_header_refuses_bad_dims_as_a_parse_error(dims, points, tmp_path):
    with pytest.raises(ParseError, match=SHAPE_RULE):
        _header(tmp_path / "x.eft", dims, points)


def test_container_header_reads_dims_through_the_shape_rule_alone(tmp_path):
    """No ``int()`` runs first: a float side or a bool is refused."""
    for dims, points in (([2.0, 2], 4), (True, 1)):
        with pytest.raises(ParseError, match=SHAPE_RULE):
            _header(tmp_path / "x.eft", dims, points)
    assert _header(tmp_path / "x.eft", 8, 8).dims == 8


@pytest.mark.parametrize("text", ["2x2x2", "6", "4x3", "0", "2x0"])
def test_text_metadata_refuses_bad_dims_as_a_parse_error(text, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(f"# fhefft dims={text}\n0,0\n")
    with pytest.raises(ParseError, match=f"bad metadata token 'dims={text}'"):
        fileio.read_signal_text(path)


def test_verify_refuses_a_plain_length_that_is_not_a_power_of_two(tmp_path, capsys):
    plain, spec = tmp_path / "p.txt", tmp_path / "s.txt"
    fileio.write_signal_text(plain, np.zeros(6))
    fileio.write_signal_text(spec, np.zeros(6))
    assert main(["verify", str(plain), str(spec)]) == 2
    assert "signal dims 6 must be a power of two M" in capsys.readouterr().err


# (id, entry, error type, message pattern): one cell per value the count rule refuses
_PARAMS = dict(n=2, q=65537, m=8, noise_bound=0, depth_budget=10)
WIDTHS = r"^need integers 0 < frac_bits < total_bits <= 1024 \(the float64 range\), got "
BAD_COUNTS = [
    ("FixedFormat-total-16.5", lambda: FixedFormat(16.5, 8), UsageError,
     WIDTHS + r"8/16\.5$"),
    ("FixedFormat-frac-8.0", lambda: FixedFormat(16, 8.0), UsageError,
     WIDTHS + r"8\.0/16$"),
    ("FixedFormat-total-text", lambda: FixedFormat("16", 8), UsageError,
     WIDTHS + "8/'16'$"),
    ("CleartextEngine-2.5", lambda: CleartextEngine(2.5), UsageError,
     r"^batch_size must be an integer >= 1, got 2\.5$"),
    ("CleartextEngine-text", lambda: CleartextEngine("4"), UsageError,
     r"^batch_size must be an integer >= 1, got '4'$"),
    ("SchemeParams-n-2.5", lambda: SchemeParams(**{**_PARAMS, "n": 2.5}), ParameterError,
     "^n and m must be positive integers$"),
    ("SchemeParams-q-float", lambda: SchemeParams(**{**_PARAMS, "q": 65537.0}), ParameterError,
     "^q must be an odd integer >= 8$"),
    ("SchemeParams-n-text", lambda: SchemeParams(**{**_PARAMS, "n": "2"}), ParameterError,
     "^n and m must be positive integers$"),
    ("run_1d_experiment-trials-2.5", lambda: run_1d_experiment(8, trials=2.5), UsageError,
     r"^trials must be an integer >= 1, got 2\.5$"),
    ("run_1d_experiment-trials-True", lambda: run_1d_experiment(8, trials=True), UsageError,
     "^trials must be an integer >= 1, got True$"),
    ("run_2d_experiment-2.5", lambda: run_2d_experiment(2.5), UsageError,
     r"^images must be an integer >= 1, got 2\.5$"),
    ("ErrorParams-m-8.0", lambda: ErrorParams(0.1, 1.0, 8.0), ParameterError,
     r"^m_points must be a power of two, got 8\.0$"),
    ("GateCostModel-width-2.5", lambda: GateCostModel(2.5, 51, 8, 8), ParameterError,
     "^fixed_width must be a positive integer$"),
    ("reference_fft-empty", lambda: reference_fft([]), UsageError,
     "^oracle needs a power-of-two length, got 0$"),
]


@pytest.mark.parametrize("entry, error, pattern",
                         [pytest.param(*case[1:], id=case[0]) for case in BAD_COUNTS])
def test_count_entries_refuse_a_value_that_is_not_a_count(entry, error, pattern):
    """Each entry refuses a float, text or bool with its own typed error
    (unchecked, each raised an untyped error, or ``FixedFormat(16.5, 8)``
    constructed)."""
    with pytest.raises(error, match=pattern):
        entry()


def test_count_entries_take_numpy_integers(tmp_path):
    """A numpy integer is a count everywhere.  The formats, scheme parameters
    and cleartext engines hold it as a Python int, so no shift or limit
    wraps at 64 bits and the parameter files write it."""
    i64 = np.int64
    fmt = FixedFormat(i64(128), i64(100))
    assert type(fmt.total_bits) is type(fmt.frac_bits) is int and fmt.scale == 1 << 100
    assert CleartextEngine(i64(100)).mask == (1 << 100) - 1
    params = SchemeParams(**{name: i64(v) for name, v in fileio.params_to_dict(
        EXACT_PARAMS).items()})
    assert params == EXACT_PARAMS and params.digest() == EXACT_PARAMS.digest()
    fileio.write_params(tmp_path / "p.json", params)
    assert fileio.read_params(tmp_path / "p.json") == EXACT_PARAMS
    with pytest.raises(ParameterError, match="exceeds the exact-arithmetic limit"):
        SchemeParams(n=i64(2), q=i64(2**61 + 1), m=8, noise_bound=0, depth_budget=1)
    assert ErrorParams(0.1, 1.0, i64(8)).m_points == 8
    assert GateCostModel(i64(32), 51, 8, 8).fixed_width == 32
    assert run_1d_experiment(4, F16, trials=i64(2)).trials == 2
    assert run_2d_experiment(i64(2), (2, 2), F16).trials == 2


# -- file fields: each goes unconverted to the rule of the record it fills ----

# valid with 1 in any field but q, so that int() reads True as a valid field
FILE_PARAMS = SchemeParams(n=2, q=65537, m=8, noise_bound=1, depth_budget=1)
FIELD_RULES = {
    "n": "^n and m must be positive integers$",
    "q": "^q must be an odd integer >= 8$",
    "m": "^n and m must be positive integers$",
    "noise_bound": "^noise_bound and depth_budget must be integers >= 0$",
    "depth_budget": "^noise_bound and depth_budget must be integers >= 0$",
}


def _not_counts(v):
    """Values that ``int()`` reads as the count ``v`` (or as 1)."""
    return {"plus-half": v + 0.5, "float": float(v), "true": True, "text": str(v)}


def _params_file(path, field, value):
    fileio.write_params(path, FILE_PARAMS)
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    return path


def _keys_file(path, field, value):
    fileio.write_keys(path, FILE_PARAMS, GswScheme(FILE_PARAMS).keygen(1))
    data = json.loads(path.read_text())
    data["params"][field] = value
    path.write_text(json.dumps(data))
    return path


PARAM_FILE_ENTRIES = {
    "read_params": lambda path, field, value: fileio.read_params(
        _params_file(path, field, value)),
    "read_keys": lambda path, field, value: fileio.read_keys(_keys_file(path, field, value)),
}


@pytest.mark.parametrize("kind", ["plus-half", "float", "true", "text"])
@pytest.mark.parametrize("field", list(FIELD_RULES))
@pytest.mark.parametrize("entry", list(PARAM_FILE_ENTRIES))
def test_parameter_files_refuse_a_field_that_is_not_a_count(entry, field, kind, tmp_path):
    """The record's rule refuses the field, and its message names the file."""
    value = _not_counts(getattr(FILE_PARAMS, field))[kind]
    path = tmp_path / "f.json"
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: {FIELD_RULES[field][1:]}"):
        PARAM_FILE_ENTRIES[entry](path, field, value)


@pytest.mark.parametrize("kind", ["plus-half", "float", "true", "text"])
@pytest.mark.parametrize("field", list(FIELD_RULES))
def test_keygen_refuses_a_parameter_file_field_that_is_not_a_count(field, kind, tmp_path,
                                                                    capsys):
    path = _params_file(tmp_path / "p.json", field, _not_counts(getattr(FILE_PARAMS, field))[kind])
    capsys.readouterr()
    assert main(["keygen", "--params", str(path), "--out", str(tmp_path / "k.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "k.json").exists()


# (id, header fields): int() reads each as a valid header
BAD_HEADER_FIELDS = [
    ("total_bits-8.9", {"fixed_format": {"total_bits": 8.9, "frac_bits": 4}}),
    ("total_bits-text", {"fixed_format": {"total_bits": "8", "frac_bits": 4}}),
    ("fixed_format-extra-field", {"fixed_format": {"total_bits": 16, "frac_bits": 8, "x": 0}}),
    ("dims-2.0", {"dims": 2.0}),
    ("dims-text", {"dims": "2"}),
    ("dims-[1, 2.0]", {"dims": [1, 2.0]}),
    ("dims-true", {"dims": True, "points": 1}),
    ("points-2.7", {"points": 2.7}),
    ("points-2.0", {"points": 2.0}),
    ("ct_side-text", {"ct_side": str(EXACT_PARAMS.n_ct)}),
    ("ct_side-float", {"ct_side": float(EXACT_PARAMS.n_ct)}),
    ("levels-0.9", {"levels": [0.9] + [0] * 63}),
    ("levels-text", {"levels": ["3"] + [0] * 63}),
    ("levels-true", {"levels": [True] + [0] * 63}),
    ("noise-0.5", {"noise": [0.5] + [0] * 63}),
]


@pytest.mark.parametrize("fields", [pytest.param(f, id=i) for i, f in BAD_HEADER_FIELDS])
def test_container_header_refuses_a_field_that_int_would_read(fields, tmp_path, capsys):
    path = _container(tmp_path / "x.eft", **fields)
    with pytest.raises(ParseError, match=r"x\.eft"):
        fileio.read_ciphertext_header(path)
    capsys.readouterr()
    assert main(["fft", str(path), "--out", str(tmp_path / "y.eft")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "y.eft").exists()


@pytest.mark.parametrize("params", [EXACT_PARAMS, DEFAULT_PARAMS], ids=["exact", "default"])
def test_files_the_package_writes_read_back(params, tmp_path):
    scheme = GswScheme(params)
    keys = scheme.keygen(1)
    fileio.write_params(tmp_path / "p.json", params)
    assert fileio.read_params(tmp_path / "p.json") == params
    fileio.write_keys(tmp_path / "k.json", params, keys)
    got_params, got_keys = fileio.read_keys(tmp_path / "k.json")
    assert got_params == params
    assert np.array_equal(got_keys.public_key, keys.public_key)
    assert np.array_equal(got_keys.secret_key, keys.secret_key)
    fmt, values = FixedFormat(8, 4), np.array([0.5, -0.25j, 1 + 0.75j, 0])
    for dims in (4, (2, 2)):
        engine = FheEngine(scheme, keys=keys, rng=np.random.default_rng(2))
        signal = input_signal(engine, values, fmt, dims=dims)
        fileio.write_ciphertext_signal(tmp_path / "s.eft", signal)
        header = fileio.read_ciphertext_header(tmp_path / "s.eft")
        assert (header.params, header.fmt, header.dims) == (params, fmt, dims)
        assert header.meta().tolist() == engine.wire_meta(signal.wires).reshape(-1).tolist()
        back = fileio.read_ciphertext_signal(tmp_path / "s.eft", engine)
        assert np.array_equal(back.wires, signal.wires.reshape(back.wires.shape))
        assert read_signal(engine, back).tolist() == [values.tolist()]
        fileio.write_signal_text(tmp_path / "s.txt", values, dims=dims, fmt=fmt)
        text, meta = fileio.read_signal_text(tmp_path / "s.txt")
        assert text.tolist() == values.tolist()
        assert meta == fileio.SignalMeta(dims=dims, total_bits=8, frac_bits=4)


# -- seeds: fhe.seeded_rng ----------------------------------------------------

SEED_ENTRIES = {
    "GswScheme.keygen": lambda seed: GswScheme(EXACT_PARAMS).keygen(seed),
    "run_1d_experiment": lambda seed: run_1d_experiment(2, F16, trials=1, seed=seed),
    "run_2d_experiment": lambda seed: run_2d_experiment(1, (1, 2), F16, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5], ids=repr)
@pytest.mark.parametrize("entry", list(SEED_ENTRIES))
def test_seed_entries_refuse_a_seed_numpy_refuses(entry, seed):
    with pytest.raises(UsageError, match=f"^bad seed {seed!r}: "):
        SEED_ENTRIES[entry](seed)


def test_seed_entries_take_numpy_seeds(exact_scheme, exact_keys):
    for seed in (np.random.SeedSequence(1), np.int64(1)):
        keys = exact_scheme.keygen(seed)
        assert np.array_equal(keys.public_key, exact_keys.public_key)
        assert np.array_equal(keys.secret_key, exact_keys.secret_key)
    reports = [run_1d_experiment(4, F16, trials=2, seed=seed).as_dict()
               for seed in (3, np.int64(3))]
    for report in reports:
        del report["wall_time"]
    assert reports[0] == reports[1]


# -- 2D images: arith._reals --------------------------------------------------

@pytest.mark.parametrize("images", ["ab", [[["0.5"]]], [[[0.5 + 1j]]],
                                    [np.array([[0.5j]], dtype=object)]],
                         ids=["text", "numeric-text", "complex", "object-complex"])
def test_2d_images_refuse_values_that_are_not_real_numbers(images):
    with pytest.raises(UsageError, match=NOT_REAL):
        run_2d_experiment(images, (1, 1), F16)


def test_2d_images_refuse_an_int_past_float64s_range():
    """The format's range check comes first: no headroom warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=OUT_OF_RANGE):
            run_2d_experiment([np.array([[10**400]], dtype=object)], (1, 1), F16)


@pytest.mark.parametrize("image, floats", [
    ([[Fraction(1, 2), Decimal("0.25")]], [[0.5, 0.25]]),
    (np.array([[0.5, 0.25]], np.float32), [[0.5, 0.25]]),
    (np.array([[True, False]]), [[1.0, 0.0]]),
    ([[1, np.int64(0)]], [[1.0, 0.0]]),
], ids=["fraction-decimal", "float32", "bool", "int"])
def test_2d_images_take_real_numbers_of_any_type(image, floats):
    got, want = (run_2d_experiment([img], (1, 2), F16).as_dict() for img in (image, floats))
    del got["wall_time"], want["wall_time"]
    assert got == want
